#include "vol/request.h"

#include "common/debug/invariant.h"

namespace apio::vol {

std::string RequestInfo::to_string() const {
  std::string out = obs::to_string(op);
  if (!dataset_path.empty()) out += " " + dataset_path;
  if (!selection.empty()) out += " " + selection;
  out += " @+" + std::to_string(offset) + " (" + std::to_string(bytes) + " B)";
  return out;
}

std::shared_ptr<Request> Request::completed(RequestInfo info) {
  auto request = std::make_shared<Request>(std::move(info));
  request->done_.store(true, std::memory_order_release);
  return request;
}

void Request::wait() {
  while (!done_.load(std::memory_order_acquire)) {
    done_.wait(false, std::memory_order_acquire);
  }
  if (error_) std::rethrow_exception(error_);
}

void Request::resolve(std::exception_ptr error) {
  APIO_INVARIANT(!done_.load(std::memory_order_relaxed),
                 "Request resolved twice");
  error_ = std::move(error);
  done_.store(true, std::memory_order_release);
  done_.notify_all();
}

}  // namespace apio::vol
