#include "storage/faulty_backend.h"

#include <string>

#include "common/debug/invariant.h"
#include "common/error.h"

namespace apio::storage {
namespace {

bool ranges_intersect(std::uint64_t begin_a, std::uint64_t end_a,
                      std::uint64_t begin_b, std::uint64_t end_b) {
  return begin_a < end_b && begin_b < end_a;
}

}  // namespace

FaultyBackend::FaultyBackend(BackendPtr inner, FaultPlan plan)
    : inner_(std::move(inner)),
      plan_(plan),
      writes_left_(plan.fail_writes_after),
      reads_left_(plan.fail_reads_after),
      flushes_left_(plan.fail_flushes_after) {
  APIO_REQUIRE(inner_ != nullptr, "FaultyBackend requires an inner backend");
}

void FaultyBackend::maybe_fault(OpKind kind, std::uint64_t offset,
                                std::uint64_t bytes) {
  // Acquire pairs with the release store in heal(): a thread that sees
  // the healed flag also sees the freshly reset counters below.
  if (healed_.load(std::memory_order_acquire)) return;

  const char* op_name = "flush";
  std::int64_t countdown = -1;
  std::uint64_t every_n = 0;
  std::atomic<std::int64_t>* left = nullptr;
  std::atomic<std::uint64_t>* calls = nullptr;
  switch (kind) {
    case OpKind::kRead:
      op_name = "read";
      countdown = plan_.fail_reads_after;
      every_n = plan_.fail_every_n_reads;
      left = &reads_left_;
      calls = &read_calls_;
      break;
    case OpKind::kWrite:
      op_name = "write";
      countdown = plan_.fail_writes_after;
      every_n = plan_.fail_every_n_writes;
      left = &writes_left_;
      calls = &write_calls_;
      break;
    case OpKind::kFlush:
      countdown = plan_.fail_flushes_after;
      every_n = plan_.fail_every_n_flushes;
      left = &flushes_left_;
      calls = &flush_calls_;
      break;
  }

  bool fault = false;
  const char* pattern = "";
  if (countdown >= 0 && left->fetch_sub(1, std::memory_order_relaxed) <= 0) {
    fault = true;
    pattern = "countdown";
  }
  const std::uint64_t call =
      calls->fetch_add(1, std::memory_order_relaxed) + 1;
  if (!fault && every_n > 0 && call % every_n == 0) {
    fault = true;
    pattern = "every-n";
  }
  if (!fault && kind != OpKind::kFlush &&
      plan_.fault_offset_begin < plan_.fault_offset_end &&
      ranges_intersect(offset, offset + bytes, plan_.fault_offset_begin,
                       plan_.fault_offset_end)) {
    fault = true;
    pattern = "offset-range";
  }
  if (!fault) return;

  const std::int64_t injected =
      static_cast<std::int64_t>(faults_.fetch_add(1, std::memory_order_relaxed)) + 1;
  if (plan_.heal_after_faults >= 0 && injected >= plan_.heal_after_faults) {
    heal();
  }

  std::string message = std::string("injected ") + op_name + " fault (" +
                        pattern + ")";
  if (kind != OpKind::kFlush) {
    message += " at offset " + std::to_string(offset);
  }
  if (plan_.transient) throw TransientIoError(message);
  throw IoError(message);
}

void FaultyBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  APIO_INVARIANT(offset + out.size() >= offset,
                 "read range overflows offset space");
  maybe_fault(OpKind::kRead, offset, out.size());
  inner_->read(offset, out);
}

void FaultyBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  maybe_fault(OpKind::kWrite, offset, data.size());
  inner_->write(offset, data);
}

void FaultyBackend::flush() {
  maybe_fault(OpKind::kFlush, 0, 0);
  inner_->flush();
}

void FaultyBackend::reset_counters() {
  writes_left_.store(plan_.fail_writes_after, std::memory_order_relaxed);
  reads_left_.store(plan_.fail_reads_after, std::memory_order_relaxed);
  flushes_left_.store(plan_.fail_flushes_after, std::memory_order_relaxed);
  write_calls_.store(0, std::memory_order_relaxed);
  read_calls_.store(0, std::memory_order_relaxed);
  flush_calls_.store(0, std::memory_order_relaxed);
}

void FaultyBackend::heal() {
  // Reset first, publish second: the release on healed_ makes the reset
  // counters visible to any fault check that acquires the flag.
  reset_counters();
  healed_.store(true, std::memory_order_release);
}

void FaultyBackend::arm() { healed_.store(false, std::memory_order_release); }

void FaultyBackend::set_plan(FaultPlan plan) {
  plan_ = plan;
  reset_counters();
}

}  // namespace apio::storage
