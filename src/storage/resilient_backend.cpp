#include "storage/resilient_backend.h"

#include <utility>

#include "common/error.h"
#include "obs/trace_context.h"

namespace apio::storage {
namespace {

const Clock& default_clock() {
  static WallClock clock;
  return clock;
}

}  // namespace

ResilientBackend::ResilientBackend(BackendPtr inner, ResilienceOptions options,
                                   const Clock* clock,
                                   resilience::Sleeper* sleeper)
    : inner_(std::move(inner)),
      options_(std::move(options)),
      clock_(clock != nullptr ? clock : &default_clock()),
      sleeper_(sleeper != nullptr ? sleeper : &resilience::wall_sleeper()) {
  APIO_REQUIRE(inner_ != nullptr, "ResilientBackend requires an inner backend");
  options_.retry.validate();
  if (options_.enable_breaker) {
    breaker_ = std::make_unique<resilience::CircuitBreaker>(
        options_.breaker, clock_, "storage:" + inner_->name());
  }
}

template <typename Fn>
void ResilientBackend::run(Fn&& fn) {
  (void)resilience::run_with_retry(options_.retry, *clock_, *sleeper_,
                                   breaker_.get(), std::forward<Fn>(fn),
                                   &retries_);
}

void ResilientBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, out.size(),
                               "resilient");
  run([&] { inner_->read(offset, out); });
}

void ResilientBackend::write(std::uint64_t offset,
                             std::span<const std::byte> data) {
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, data.size(),
                               "resilient");
  run([&] { inner_->write(offset, data); });
}

void ResilientBackend::flush() {
  run([&] { inner_->flush(); });
}

}  // namespace apio::storage
