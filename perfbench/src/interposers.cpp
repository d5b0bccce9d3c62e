#include "interposers.h"

#include "obs/span.h"
#include "storage/backend_stack.h"
#include "storage/resilient_backend.h"
#include "storage/throttled_backend.h"

namespace perfbench {

using apio::storage::BackendPtr;
using apio::storage::BackendStack;
using apio::storage::ReadExtent;
using apio::storage::WriteExtent;
using trace::Layer;
using trace::Op;
using trace::Scope;

void TimedBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  Scope span(layer_, Op::kRead, tag_, out.size(), 1);
  inner_->read(offset, out);
}

void TimedBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  Scope span(layer_, Op::kWrite, tag_, data.size(), 1);
  inner_->write(offset, data);
}

std::uint64_t TimedBackend::write_v(std::span<const WriteExtent> extents) {
  std::uint64_t bytes = 0;
  for (const auto& e : extents) bytes += e.data.size();
  Scope span(layer_, Op::kWriteV, tag_, bytes,
             static_cast<std::uint32_t>(extents.size()));
  return inner_->write_v(extents);
}

std::uint64_t TimedBackend::read_v(std::span<const ReadExtent> extents) {
  std::uint64_t bytes = 0;
  for (const auto& e : extents) bytes += e.out.size();
  Scope span(layer_, Op::kReadV, tag_, bytes,
             static_cast<std::uint32_t>(extents.size()));
  return inner_->read_v(extents);
}

void TimedBackend::flush() {
  Scope span(layer_, Op::kFlush, tag_);
  inner_->flush();
}

void TimedBackend::close() {
  Scope span(layer_, Op::kClose, tag_);
  inner_->close();
}

void TimedBackend::truncate(std::uint64_t new_size) {
  Scope span(layer_, Op::kTruncate, tag_);
  inner_->truncate(new_size);
}

void CorruptingBackend::maybe_flip(std::span<std::byte> out) {
  if (out.size() < 64 || !armed_.exchange(false)) return;
  out[out.size() / 2] ^= std::byte{0x5A};
}

void CorruptingBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  inner_->read(offset, out);
  maybe_flip(out);
}

std::uint64_t CorruptingBackend::read_v(std::span<const ReadExtent> extents) {
  const std::uint64_t n = inner_->read_v(extents);
  for (const auto& e : extents) maybe_flip(e.out);
  return n;
}

BuiltStack build_stack(BackendPtr leaf, const StackSpec& spec, bool timed,
                       std::uint8_t tag) {
  BuiltStack out;
  out.leaf = leaf;
  auto stage = [&](BackendPtr b, Layer layer) -> BackendPtr {
    if (!timed) return b;
    return std::make_shared<TimedBackend>(std::move(b), layer, tag);
  };
  BackendPtr cur = stage(std::move(leaf), Layer::kLeaf);
  if (spec.throttled) {
    apio::storage::ThrottleParams params;
    params.time_scale = 0.0;
    cur = stage(BackendStack::wrap(cur).throttled(params).build(),
                Layer::kThrottled);
  }
  if (spec.resilient) {
    apio::storage::ResilienceOptions options;
    options.retry.max_attempts = 3;
    cur = stage(BackendStack::wrap(cur).resilient(options).build(),
                Layer::kResilient);
  }
  if (spec.qos) {
    out.scheduler = std::make_shared<apio::sched::FairScheduler>();
    cur = stage(BackendStack::wrap(cur).qos(out.scheduler).build(),
                Layer::kQos);
  }
  if (spec.cached) {
    BackendPtr cached = BackendStack::wrap(cur).cached(spec.cache).build();
    out.cache = std::dynamic_pointer_cast<apio::storage::CachedBackend>(cached);
    cur = stage(std::move(cached), Layer::kCached);
  }
  out.top = std::move(cur);
  return out;
}

apio::vol::RequestPtr TracingConnector::dataset_write(
    apio::h5::Dataset ds, const apio::h5::Selection& selection,
    std::span<const std::byte> data) {
  apio::vol::RequestPtr request;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  {
    Scope span(layer_, Op::kDatasetWrite, tag_, data.size(), 1);
    t0 = trace::now_ns();
    request = inner_->dataset_write(std::move(ds), selection, data);
    t1 = trace::now_ns();
  }
  std::lock_guard lock(mutex_);
  writes_.push_back({t0, t1, data.size(), apio::obs::thread_rank()});
  requests_.push_back(request);
  return request;
}

apio::vol::RequestPtr TracingConnector::dataset_read(
    apio::h5::Dataset ds, const apio::h5::Selection& selection,
    std::span<std::byte> out) {
  apio::vol::RequestPtr request;
  {
    Scope span(layer_, Op::kDatasetRead, tag_, out.size(), 1);
    request = inner_->dataset_read(std::move(ds), selection, out);
  }
  keep(request);
  return request;
}

void TracingConnector::prefetch(apio::h5::Dataset ds,
                                const apio::h5::Selection& selection) {
  Scope span(layer_, Op::kPrefetch, tag_);
  inner_->prefetch(std::move(ds), selection);
}

apio::vol::RequestPtr TracingConnector::flush() {
  apio::vol::RequestPtr request;
  {
    Scope span(layer_, Op::kConnectorFlush, tag_);
    request = inner_->flush();
  }
  keep(request);
  return request;
}

void TracingConnector::wait_all() {
  Scope span(layer_, Op::kWaitAll, tag_);
  inner_->wait_all();
}

void TracingConnector::close() {
  const std::uint64_t t0 = trace::now_ns();
  {
    Scope span(layer_, Op::kConnectorClose, tag_);
    inner_->close();
  }
  close_seconds_ = static_cast<double>(trace::now_ns() - t0) * 1e-9;
}

void TracingConnector::keep(const apio::vol::RequestPtr& request) {
  std::lock_guard lock(mutex_);
  requests_.push_back(request);
}

std::uint64_t TracingConnector::failed() const {
  std::uint64_t n = 0;
  for (const auto& r : requests_) {
    if (!r->test() || r->failed()) ++n;
  }
  return n;
}

}  // namespace perfbench
