#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload definitions and seeded input generation. Plain C++: nothing here
// links or includes the system under test, so the inputs (and the reference
// outputs computed from them) are independent of the program.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// T: event-time units per epoch.
constexpr int64_t kEpochTs = 10;
// Saturated phase (and warm-up): at most this many epochs unanswered.
constexpr uint32_t kInflightEpochs = 16;
// Paced phase: an epoch that falls due while this many are unanswered waits
// for the oldest of them. The server reads a connection to EAGAIN and
// dispatches every buffered frame before it pumps its subscribers, so a
// backlog of more watermarks than a subscription has credits (64) would drop
// result rows; a stalled host would otherwise turn into lost outputs. The
// wait still counts in the latency, which is timed from the due time.
constexpr uint32_t kPacedMaxBacklog = 16;

enum class QueryKind { kFilter, kAggregate, kJoin };

struct QuerySpec {
  QueryKind kind = QueryKind::kFilter;
  std::string sql;
  // kFilter: the query keeps rows with lo <= price < hi.
  int64_t lo = 0;
  int64_t hi = 0;
};

// One input record. trades: a = price, b = qty. quotes: a = bid.
struct Rec {
  uint32_t key = 0;
  int64_t ts = 0;
  int64_t a = 0;
  int64_t b = 0;
};

// One epoch: every record with ts in ((e-1)*T, e*T], then one WATERMARK
// e*T per stream. `wire` holds those commands as length-prefixed frames,
// sent back to back.
struct Epoch {
  std::vector<Rec> trades;
  std::vector<Rec> quotes;
  std::string wire;
  uint32_t commands = 0;
  size_t records() const { return trades.size() + quotes.size(); }
};

struct WorkloadSpec {
  std::string name;
  size_t shards = 1;          // query_server --shards
  bool join = false;          // two streams (trades + quotes)
  std::vector<QuerySpec> queries;
  uint32_t key_space = 1;     // distinct `sym` values
  double zipf_s = 0;          // key skew; 0 = uniform
  int64_t range = 50;         // [Range] of every query, a multiple of T
  uint32_t trades_per_epoch = 0;
  uint32_t quotes_per_epoch = 0;
  uint32_t warmup_epochs = 0;  // fills the windows to their steady size
  double paced_records_per_s = 0;
  double max_records_per_s = 0;      // bounds the pre-generated epochs
  uint32_t records_per_epoch() const {
    return trades_per_epoch + quotes_per_epoch;
  }
  uint32_t window_epochs() const {
    return static_cast<uint32_t>(range / kEpochTs);
  }
};

// The benchmark's workloads, by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

// The STREAM commands that declare the workload's inputs.
std::vector<std::string> StreamCommands(const WorkloadSpec& spec);

// u32 big-endian length + payload.
std::string EncodeFrame(const std::string& payload);

// Appends epochs first..first+count-1 (1-based) generated from `seed`.
// The same seed gives the same epochs.
void GenerateEpochs(const WorkloadSpec& spec, uint64_t seed, uint32_t first,
                    uint32_t count, std::vector<Epoch>* out);

// The `sym` value of key k as it appears on the wire and in results.
std::string SymName(uint32_t key);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
