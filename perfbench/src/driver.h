#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

// The load generator: one process, two threads (the sender paces epochs,
// the receiver reads every reply), both blocking rather than spinning. It
// speaks the query_server wire protocol over two loopback connections: one
// carries STREAM/REGISTER/PUSH/WATERMARK and their replies, the other the
// LISTEN subscriptions and their pushed DATA frames. Plain C++: it links
// nothing of the system under test.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check.h"
#include "workload.h"

namespace perfbench {

int64_t NowNs();  // CLOCK_MONOTONIC (the clock std::steady_clock reads)

// Sum of the samples of metric `name` in Prometheus text exposition whose
// line contains `filter`; -1 when no sample matches.
double SumSamples(std::string_view text, std::string_view name,
                  std::string_view filter = "");

// Returns the q-quantile (0..1) of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);

struct PacedResult {
  uint64_t records = 0;
  uint32_t epochs = 0;
  std::vector<double> latency_ms;  // epochs with at least one result row
  std::vector<double> late_us;     // how late each epoch was sent
  uint32_t backlog_waits = 0;      // epochs held back by kPacedMaxBacklog
};

struct SaturatedResult {
  uint64_t records = 0;  // records of epochs fully answered in the window
  double seconds = 0;
};

class Driver {
 public:
  Driver(const WorkloadSpec& spec, uint64_t seed);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  // Generates the inputs of every phase and their reference outputs. Runs
  // before the server exists, so none of it is timed.
  void Prepare(uint32_t paced_epochs, uint32_t saturated_epochs);

  // Declares the streams, registers the queries and opens one LISTEN per
  // query, then starts the receiver.
  bool Setup(uint16_t port);
  // Sends the warm-up epochs closed-loop and waits until all are answered.
  bool Warmup();
  // Open loop: epoch k is due at start + k * period; its records and
  // watermarks go out back to back at the due time (or at once when late),
  // unless kPacedMaxBacklog epochs are still unanswered.
  // Results accumulate into `out` across calls.
  bool Paced(uint32_t epochs, double period_s, PacedResult* out);
  // Closed loop with at most kInflightEpochs epochs unanswered.
  // Results accumulate into `out` across calls.
  bool Saturated(double seconds, SaturatedResult* out);
  // Waits for every sent epoch, stops the receiver, checks every output
  // against the reference and the properties, and scrapes /metrics for
  // subscription drops and evictions.
  bool Finish(uint16_t port);

  // Correctness problems (empty when every output checked out).
  const std::vector<std::string>& errors() const { return errors_; }
  // ERR replies: each marks its epoch as a failed operation.
  const std::vector<std::string>& failures() const { return failures_; }
  uint32_t epochs_sent() const { return sent_; }
  uint32_t failed_epochs() const { return failed_epochs_; }
  // Bytes and DATA frames received so far (both connections).
  uint64_t bytes_received() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t data_frames() const {
    return data_frames_.load(std::memory_order_relaxed);
  }
  uint32_t epochs_available() const {
    return static_cast<uint32_t>(epochs_.size()) - sent_;
  }

 private:
  bool Command(int fd, const std::string& payload, std::string* reply);
  bool SendEpoch();  // sends epoch sent_ + 1
  // Blocks until epochs 1..e are answered; false on a stall or failure.
  bool WaitCompleted(uint32_t e);
  void ReceiveLoop();
  void OnFrame(bool data_conn, std::string_view frame);
  void AdvanceCompletion(int64_t now);
  void Fail(const std::string& msg);

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  std::vector<Epoch> epochs_;
  Expected expected_;
  std::vector<uint64_t> cum_commands_;  // [e] = commands of epochs 1..e
  std::vector<size_t> sid_query_;       // LISTEN sid -> query index

  int push_fd_ = -1;
  int listen_fd_ = -1;
  std::thread receiver_;
  std::atomic<bool> stop_{false};

  // Sender side.
  uint32_t sent_ = 0;
  uint64_t records_sent_ = 0;
  std::atomic<uint32_t> wm_sent_{0};  // set before an epoch's first byte

  // Receiver side (receiver thread only, read by others after join or
  // under mu_ once the epoch completed).
  Table observed_;
  std::vector<int32_t> remaining_;     // expected rows not yet seen
  std::vector<int64_t> data_done_ns_;  // when the last row arrived
  std::vector<int64_t> complete_ns_;
  std::vector<uint8_t> failed_;
  uint64_t acks_ = 0;
  uint32_t ack_epoch_ = 1;
  uint32_t next_complete_ = 1;
  uint64_t early_rows_ = 0;
  uint64_t predicate_violations_ = 0;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> data_frames_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t completed_ = 0;  // guarded by mu_
  bool dead_ = false;       // guarded by mu_: receiver hit a fatal error
  std::vector<std::string> errors_;    // guarded by mu_ while running
  std::vector<std::string> failures_;  // receiver thread until joined
  uint32_t failed_epochs_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
