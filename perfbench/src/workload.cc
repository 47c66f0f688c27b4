#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {
namespace {

constexpr const char* kTradesSchema = "sym:string,price:int64,qty:int64";
constexpr const char* kQuotesSchema = "sym:string,bid:int64";
constexpr int64_t kPriceSpan = 1000;  // price and bid in [0, 1000)
constexpr int64_t kQtySpan = 100;     // qty in [1, 100]

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// splitmix64.
struct Rng {
  uint64_t s;
  uint64_t Next() { return Mix(s += 0x9e3779b97f4a7c15ULL); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

// Cumulative Zipf(s) weights over [0, n), cached per (n, s).
const std::vector<double>& ZipfCdf(uint32_t n, double s) {
  static std::map<std::pair<uint32_t, double>, std::vector<double>> cache;
  auto& cdf = cache[{n, s}];
  if (cdf.empty()) {
    cdf.resize(n);
    double acc = 0;
    for (uint32_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf[i] = acc;
    }
  }
  return cdf;
}

uint32_t DrawKey(const WorkloadSpec& spec, Rng* rng) {
  if (spec.zipf_s <= 0) {
    return static_cast<uint32_t>(rng->Below(spec.key_space));
  }
  const std::vector<double>& cdf = ZipfCdf(spec.key_space, spec.zipf_s);
  double u = rng->Unit() * cdf.back();
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  // Scatter ranks over the key space so hot keys are not all adjacent.
  uint32_t rank = static_cast<uint32_t>(it - cdf.begin());
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(rank) * 2654435761ULL) % spec.key_space);
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;

  // 16 filter+project queries with distinct, overlapping price bands (25%
  // selectivity each, so ~4 DATA frames per input record) over one small
  // key space. Output-heavy, state-light.
  WorkloadSpec ff;
  ff.name = "filter_fanout";
  ff.key_space = 8;
  ff.range = 50;
  ff.trades_per_epoch = 50;
  ff.warmup_epochs = 400;
  ff.paced_records_per_s = 10000;
  ff.max_records_per_s = 120000;
  for (int i = 0; i < 16; ++i) {
    QuerySpec q;
    q.kind = QueryKind::kFilter;
    q.lo = 40 * i;
    q.hi = q.lo + 250;
    q.sql = "SELECT sym, price FROM trades [Range 50] WHERE price >= " +
            std::to_string(q.lo) + " AND price < " + std::to_string(q.hi);
    ff.queries.push_back(q);
  }
  out.push_back(ff);

  // One grouped aggregate over a long window on a Zipf key space: window
  // and group state outgrow L2; few output rows per input record.
  WorkloadSpec ga;
  ga.name = "grouped_agg";
  ga.key_space = 100000;
  ga.zipf_s = 1.0;
  ga.range = 4000;
  ga.trades_per_epoch = 100;
  ga.warmup_epochs = 400;
  ga.paced_records_per_s = 10000;
  ga.max_records_per_s = 150000;
  ga.queries.push_back(
      {QueryKind::kAggregate,
       "SELECT sym, SUM(qty) AS vol, COUNT(*) AS n, MAX(price) AS hi "
       "FROM trades [Range 4000] GROUP BY sym",
       0, 0});
  out.push_back(ga);

  // Two-stream equi-join: join indexes and two-slot watermark alignment.
  WorkloadSpec sj;
  sj.name = "stream_join";
  sj.join = true;
  sj.key_space = 256;
  sj.range = 50;
  sj.trades_per_epoch = 100;
  sj.quotes_per_epoch = 100;
  sj.warmup_epochs = 100;
  sj.paced_records_per_s = 20000;
  sj.max_records_per_s = 200000;
  sj.queries.push_back(
      {QueryKind::kJoin,
       "SELECT t.sym, t.price, q.bid FROM trades t [Range 50], "
       "quotes q [Range 50] WHERE t.sym = q.sym",
       0, 0});
  out.push_back(sj);

  // grouped_agg's inputs and query on four shard replicas.
  WorkloadSpec gs = ga;
  gs.name = "grouped_agg_sharded";
  gs.shards = 4;
  out.push_back(gs);
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  return all;
}

void AppendFrame(const std::string& payload, std::string* out) {
  uint32_t n = static_cast<uint32_t>(payload.size());
  char hdr[4] = {static_cast<char>(n >> 24), static_cast<char>(n >> 16),
                 static_cast<char>(n >> 8), static_cast<char>(n)};
  out->append(hdr, 4);
  out->append(payload);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> StreamCommands(const WorkloadSpec& spec) {
  std::string key = spec.shards > 1 ? " key=sym" : "";
  std::vector<std::string> out = {std::string("STREAM trades ") +
                                  kTradesSchema + key};
  if (spec.join) out.push_back(std::string("STREAM quotes ") + kQuotesSchema);
  return out;
}

std::string EncodeFrame(const std::string& payload) {
  std::string out;
  AppendFrame(payload, &out);
  return out;
}

std::string SymName(uint32_t key) { return "K" + std::to_string(key); }

void GenerateEpochs(const WorkloadSpec& spec, uint64_t seed, uint32_t first,
                    uint32_t count, std::vector<Epoch>* out) {
  std::string payload;
  for (uint32_t e = first; e < first + count; ++e) {
    Rng rng{Mix(seed * 0x100000001b3ULL + e)};
    Epoch ep;
    const int64_t base = (static_cast<int64_t>(e) - 1) * kEpochTs;
    auto draw_ts = [&] {
      return base + 1 + static_cast<int64_t>(rng.Below(kEpochTs));
    };
    for (uint32_t i = 0; i < spec.trades_per_epoch; ++i) {
      Rec r;
      r.key = DrawKey(spec, &rng);
      r.ts = draw_ts();
      r.a = static_cast<int64_t>(rng.Below(kPriceSpan));
      r.b = 1 + static_cast<int64_t>(rng.Below(kQtySpan));
      ep.trades.push_back(r);
    }
    for (uint32_t i = 0; i < spec.quotes_per_epoch; ++i) {
      Rec r;
      r.key = DrawKey(spec, &rng);
      r.ts = draw_ts();
      r.a = static_cast<int64_t>(rng.Below(kPriceSpan));
      ep.quotes.push_back(r);
    }
    // Pushes of the two streams interleave; the watermarks follow.
    size_t n = std::max(ep.trades.size(), ep.quotes.size());
    for (size_t i = 0; i < n; ++i) {
      if (i < ep.trades.size()) {
        const Rec& r = ep.trades[i];
        payload = "PUSH trades " + std::to_string(r.ts) + " " +
                  SymName(r.key) + "," + std::to_string(r.a) + "," +
                  std::to_string(r.b);
        AppendFrame(payload, &ep.wire);
        ++ep.commands;
      }
      if (i < ep.quotes.size()) {
        const Rec& r = ep.quotes[i];
        payload = "PUSH quotes " + std::to_string(r.ts) + " " +
                  SymName(r.key) + "," + std::to_string(r.a);
        AppendFrame(payload, &ep.wire);
        ++ep.commands;
      }
    }
    const std::string tau = std::to_string(base + kEpochTs);
    AppendFrame("WATERMARK trades " + tau, &ep.wire);
    ++ep.commands;
    if (spec.join) {
      AppendFrame("WATERMARK quotes " + tau, &ep.wire);
      ++ep.commands;
    }
    out->push_back(std::move(ep));
  }
}

}  // namespace perfbench
