// CancelToken: cooperative cancellation for in-flight planning.
//
// A token is shared (shared_ptr) between the party that can cancel — a
// TCP connection noticing its client hung up, a server entering drain —
// and the work being cancelled: the DP/B&B level walk (beam search
// included), soft-budget attempts, session-pool waits. The work polls
// cancelled() at the same cadence as step timeouts (per level, every 64
// states and ~4096 transitions; one relaxed load on the hot path) and unwinds with kCancelled, freeing its
// states promptly instead of finishing a plan nobody will read.
//
// Cancellation is sticky: once Cancel() is called the token stays
// cancelled forever. OnCancel callbacks let the single-flight layer
// aggregate many waiters' tokens into one flight token (the flight
// cancels only when *every* waiter has cancelled); a callback registered
// after cancellation runs immediately on the registering thread.
#ifndef SERENITY_UTIL_CANCEL_TOKEN_H_
#define SERENITY_UTIL_CANCEL_TOKEN_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace serenity::util {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Idempotent. Runs every registered OnCancel callback exactly once, on
  // the first cancelling thread.
  void Cancel() {
    if (cancelled_.exchange(true, std::memory_order_release)) return;
    std::vector<std::function<void()>> callbacks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      callbacks.swap(callbacks_);
    }
    for (auto& callback : callbacks) callback();
  }

  // Registers `callback` to run when the token is cancelled; runs it
  // immediately (on this thread) when the token already is. Callbacks must
  // not re-enter this token.
  void OnCancel(std::function<void()> callback) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!cancelled_.load(std::memory_order_acquire)) {
        callbacks_.push_back(std::move(callback));
        return;
      }
    }
    callback();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::mutex mu_;
  std::vector<std::function<void()>> callbacks_;
};

}  // namespace serenity::util

#endif  // SERENITY_UTIL_CANCEL_TOKEN_H_
