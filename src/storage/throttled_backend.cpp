#include "storage/throttled_backend.h"

#include <chrono>
#include <thread>

#include "common/debug/invariant.h"
#include "common/error.h"
#include "obs/trace_context.h"

namespace apio::storage {
namespace {

double steady_now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

void sleep_seconds(double s) {
  if (s <= 0.0) return;
  // Deliberate: the throttle models PFS latency by blocking the calling
  // thread, exactly as a congested parallel file system does.
  std::this_thread::sleep_for(  // apio-lint: allow(thread-context)
      std::chrono::duration<double>(s));
}

}  // namespace

ThrottledBackend::ThrottledBackend(BackendPtr inner, ThrottleParams params)
    : inner_(std::move(inner)), params_(params) {
  APIO_REQUIRE(inner_ != nullptr, "ThrottledBackend requires an inner backend");
  APIO_REQUIRE(params_.bandwidth > 0, "throttle bandwidth must be positive");
  APIO_REQUIRE(params_.time_scale >= 0, "time_scale must be >= 0");
}

void ThrottledBackend::throttle(std::uint64_t bytes) {
  const double delay = params_.latency + static_cast<double>(bytes) / params_.bandwidth;
  if (params_.shared_channel) {
    // Reserve a slot on the shared channel: operations queue behind each
    // other just as concurrent clients of one PFS allocation do.
    double wait = 0.0;
    {
      std::lock_guard lock(channel_mutex_);
      const double now = steady_now();
      const double start = std::max(now, channel_free_at_);
      channel_free_at_ = start + delay * params_.time_scale;
      modelled_delay_ += delay;
      wait = channel_free_at_ - now;
      // The shared channel only ever books time forward; a regression
      // here would let concurrent ops overlap their budgeted slots.
      APIO_INVARIANT(wait >= 0.0, "shared-channel reservation moved backwards");
    }
    sleep_seconds(wait);
  } else {
    {
      std::lock_guard lock(channel_mutex_);
      modelled_delay_ += delay;
    }
    sleep_seconds(delay * params_.time_scale);
  }
}

void ThrottledBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, out.size(),
                               "throttled");
  throttle(out.size());
  inner_->read(offset, out);
}

void ThrottledBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, data.size(),
                               "throttled");
  throttle(data.size());
  inner_->write(offset, data);
}

std::uint64_t ThrottledBackend::write_v(std::span<const WriteExtent> extents) {
  const std::uint64_t total = total_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "throttled");
  throttle(total);
  return inner_->write_v(extents);
}

std::uint64_t ThrottledBackend::read_v(std::span<const ReadExtent> extents) {
  const std::uint64_t total = total_bytes(extents);
  obs::trace::ScopedPhase span(obs::trace::Phase::kBackend, total, "throttled");
  throttle(total);
  return inner_->read_v(extents);
}

double ThrottledBackend::modelled_delay_seconds() const {
  std::lock_guard lock(channel_mutex_);
  return modelled_delay_;
}

}  // namespace apio::storage
