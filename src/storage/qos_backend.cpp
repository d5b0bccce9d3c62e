#include "storage/qos_backend.h"

#include "common/error.h"
#include "obs/trace_context.h"

namespace apio::storage {

namespace {

/// Holds one admission grant for the duration of the inner transfer;
/// releases the channel slot on every exit path, including throws.
/// The time blocked inside admit() is the queue-wait phase of the
/// bound request's trace.
class Admission {
 public:
  Admission(sched::FairScheduler& scheduler, const sched::IoRequest& request)
      : scheduler_(scheduler) {
    obs::trace::ScopedPhase wait(obs::trace::Phase::kQueueWait, request.bytes);
    ticket_ = scheduler_.admit(request);
  }
  ~Admission() { scheduler_.complete(ticket_); }

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

 private:
  sched::FairScheduler& scheduler_;
  sched::TicketPtr ticket_;
};

}  // namespace

QosBackend::QosBackend(BackendPtr inner, sched::FairSchedulerPtr scheduler,
                       QosOptions options)
    : inner_(std::move(inner)),
      scheduler_(std::move(scheduler)),
      options_(std::move(options)) {
  APIO_REQUIRE(inner_ != nullptr, "QosBackend needs an inner backend");
  APIO_REQUIRE(scheduler_ != nullptr, "QosBackend needs a scheduler");
}

sched::IoRequest QosBackend::request_for(obs::IoOp op,
                                         std::uint64_t bytes) const {
  sched::IoRequest request;
  request.op = op;
  request.bytes = bytes;
  if (const sched::SubmissionContext* ctx = sched::current_submission()) {
    request.tenant = ctx->tenant;
    request.lane = ctx->lane;
    request.deadline = ctx->deadline;
  }
  if (request.tenant.empty()) request.tenant = options_.default_tenant;
  if (op == obs::IoOp::kFlush) request.lane = options_.flush_lane;
  return request;
}

void QosBackend::read(std::uint64_t offset, std::span<std::byte> out) {
  Admission grant(*scheduler_, request_for(obs::IoOp::kRead, out.size()));
  obs::trace::ScopedPhase held(obs::trace::Phase::kAdmission, out.size());
  inner_->read(offset, out);
}

void QosBackend::write(std::uint64_t offset, std::span<const std::byte> data) {
  Admission grant(*scheduler_, request_for(obs::IoOp::kWrite, data.size()));
  obs::trace::ScopedPhase held(obs::trace::Phase::kAdmission, data.size());
  inner_->write(offset, data);
}

std::uint64_t QosBackend::write_v(std::span<const WriteExtent> extents) {
  const std::uint64_t total = total_bytes(extents);
  Admission grant(*scheduler_, request_for(obs::IoOp::kWrite, total));
  obs::trace::ScopedPhase held(obs::trace::Phase::kAdmission, total);
  return inner_->write_v(extents);
}

std::uint64_t QosBackend::read_v(std::span<const ReadExtent> extents) {
  const std::uint64_t total = total_bytes(extents);
  Admission grant(*scheduler_, request_for(obs::IoOp::kRead, total));
  obs::trace::ScopedPhase held(obs::trace::Phase::kAdmission, total);
  return inner_->read_v(extents);
}

void QosBackend::flush() {
  Admission grant(*scheduler_, request_for(obs::IoOp::kFlush, 0));
  obs::trace::ScopedPhase held(obs::trace::Phase::kAdmission);
  inner_->flush();
}

}  // namespace apio::storage
