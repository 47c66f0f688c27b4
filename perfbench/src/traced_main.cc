// Traced mode: the same workload against an in-process net::Server on its
// own thread, configured as `query_server --serve` configures it (metrics
// plus a trace of every push). A timing ServiceBackend decorator measures
// each layer from outside, the service's own operator spans come from a
// TraceRecorder large enough to hold the whole measured phase, and the
// server thread's CPU clock gives the front door's own share. Never part
// of the timed runs.
//
//   perfbench_traced --workload NAME --seed N --seconds S

#include <pthread.h>
#include <signal.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver.h"
#include "net/backend.h"
#include "net/quotas.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "service/service.h"
#include "shard/sharded_service.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr unsigned kDeadlineSeconds = 170;
// Spans the recorder retains; the traced phase is cut to fit in it.
constexpr size_t kSpanCapacity = size_t{1} << 20;
// Shares of --seconds for the untimed-decorator and the timed phase.
constexpr double kPhaseShare = 0.45;

struct LayerTimes {
  std::atomic<bool> on{true};
  std::atomic<int64_t> push_ns{0}, watermark_ns{0}, register_ns{0},
      poll_ns{0}, other_ns{0};
  std::atomic<int64_t> registers{0};
};

class Stopwatch {
 public:
  Stopwatch(const LayerTimes& t, std::atomic<int64_t>* sink)
      : sink_(t.on.load(std::memory_order_relaxed) ? sink : nullptr),
        start_(sink_ != nullptr ? NowNs() : 0) {}
  ~Stopwatch() {
    if (sink_ != nullptr) {
      sink_->fetch_add(NowNs() - start_, std::memory_order_relaxed);
    }
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  std::atomic<int64_t>* sink_;
  int64_t start_;
};

class TimedFeed : public cq::net::SubscriberFeed {
 public:
  TimedFeed(std::unique_ptr<cq::net::SubscriberFeed> inner, LayerTimes* t)
      : inner_(std::move(inner)), t_(t) {}
  bool TryPoll(cq::StreamBatch* out) override {
    Stopwatch w(*t_, &t_->poll_ns);
    return inner_->TryPoll(out);
  }
  void Cancel() override { inner_->Cancel(); }
  bool Closed() const override { return inner_->Closed(); }
  size_t Depth() const override { return inner_->Depth(); }
  uint64_t QueryId() const override { return inner_->QueryId(); }

 private:
  std::unique_ptr<cq::net::SubscriberFeed> inner_;
  LayerTimes* t_;
};

// Times every verb the front door dispatches into the service.
class TimedBackend : public cq::net::ServiceBackend {
 public:
  TimedBackend(cq::net::ServiceBackend* inner, LayerTimes* t)
      : inner_(inner), t_(t) {}

  cq::Status RegisterStream(const std::string& name, cq::SchemaPtr schema,
                            std::vector<size_t> shard_key) override {
    Stopwatch w(*t_, &t_->other_ns);
    return inner_->RegisterStream(name, std::move(schema),
                                  std::move(shard_key));
  }
  cq::Result<cq::QueryId> RegisterQuery(const std::string& sql) override {
    Stopwatch w(*t_, &t_->register_ns);
    t_->registers.fetch_add(1, std::memory_order_relaxed);
    return inner_->RegisterQuery(sql);
  }
  cq::Status DropQuery(cq::QueryId id) override {
    Stopwatch w(*t_, &t_->other_ns);
    return inner_->DropQuery(id);
  }
  cq::Result<std::unique_ptr<cq::net::SubscriberFeed>> Subscribe(
      cq::QueryId id) override {
    Stopwatch w(*t_, &t_->other_ns);
    auto feed = inner_->Subscribe(id);
    if (!feed.ok()) return feed.status();
    return std::unique_ptr<cq::net::SubscriberFeed>(
        std::make_unique<TimedFeed>(std::move(*feed), t_));
  }
  cq::Status PushRecord(const std::string& stream, cq::Tuple tuple,
                        cq::Timestamp ts) override {
    Stopwatch w(*t_, &t_->push_ns);
    return inner_->PushRecord(stream, std::move(tuple), ts);
  }
  cq::Status PushWatermark(const std::string& stream,
                           cq::Timestamp watermark) override {
    Stopwatch w(*t_, &t_->watermark_ns);
    return inner_->PushWatermark(stream, watermark);
  }
  cq::Result<cq::SchemaPtr> StreamSchema(
      const std::string& name) const override {
    Stopwatch w(*t_, &t_->other_ns);
    return inner_->StreamSchema(name);
  }
  cq::Result<size_t> QueryStateBytes(cq::QueryId id) const override {
    Stopwatch w(*t_, &t_->other_ns);
    return inner_->QueryStateBytes(id);
  }
  std::vector<cq::QueryInfo> ListQueries() const override {
    Stopwatch w(*t_, &t_->other_ns);
    return inner_->ListQueries();
  }
  size_t NumOperators() const override { return inner_->NumOperators(); }
  size_t NumActiveQueries() const override {
    return inner_->NumActiveQueries();
  }

 private:
  cq::net::ServiceBackend* inner_;
  LayerTimes* t_;
};

struct Counters {
  int64_t push_ns, watermark_ns, poll_ns, other_ns;
  int64_t thread_cpu_ns;
  uint64_t frames, bytes;
  double win_out;
  std::vector<uint64_t> routed;
};

int64_t ThreadCpuNs(std::thread* t) {
  clockid_t cid;
  if (pthread_getcpuclockid(t->native_handle(), &cid) != 0) return 0;
  timespec ts;
  ::clock_gettime(cid, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void OnSignal(int sig) { ::_exit(128 + sig); }

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double rpe = spec->records_per_epoch();
  const double period_s = rpe / spec->paced_records_per_s;
  const uint32_t phase_epochs = static_cast<uint32_t>(
      args.seconds * kPhaseShare * spec->paced_records_per_s / rpe);

  // The server, as serve mode builds it.
  cq::MetricsRegistry registry;
  cq::TraceRecorder tracer(kSpanCapacity);
  cq::ServiceConfig config;
  config.metrics = &registry;
  config.tracer = &tracer;
  config.trace_sample_every = 1;
  std::unique_ptr<cq::QueryService> local;
  std::unique_ptr<cq::shard::ShardedQueryService> sharded;
  std::unique_ptr<cq::net::ServiceBackend> backend;
  if (spec->shards > 1) {
    sharded =
        std::make_unique<cq::shard::ShardedQueryService>(spec->shards, config);
    backend = std::make_unique<cq::net::ShardedBackend>(sharded.get());
  } else {
    local = std::make_unique<cq::QueryService>(cq::Catalog{}, config);
    backend = std::make_unique<cq::net::LocalBackend>(local.get());
  }
  LayerTimes times;
  TimedBackend timed(backend.get(), &times);
  cq::net::TenantQuotas quotas(&registry);
  cq::net::ServerConfig sconf;
  sconf.port = 0;
  sconf.quotas = &quotas;
  sconf.metrics = &registry;
  cq::net::Server server(&timed, sconf);
  server.AddHttpRoute("/metrics", "text/plain; version=0.0.4", [&registry] {
    return registry.Dump(cq::MetricsFormat::kText);
  });
  cq::Status st = server.Init();
  if (!st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }
  std::thread loop([&server] { server.Run(); });

  Driver driver(*spec, args.seed);
  driver.Prepare(2 * phase_epochs, 0);
  bool ok = driver.Setup(server.port()) && driver.Warmup();

  auto sample = [&] {
    Counters c;
    c.push_ns = times.push_ns.load();
    c.watermark_ns = times.watermark_ns.load();
    c.poll_ns = times.poll_ns.load();
    c.other_ns = times.other_ns.load();
    c.thread_cpu_ns = ThreadCpuNs(&loop);
    c.frames = driver.data_frames();
    c.bytes = driver.bytes_received();
    c.win_out = std::max(0.0, SumSamples(registry.Dump(cq::MetricsFormat::kText),
                                         "cq_dataflow_records_out_total",
                                         "node=\"win:"));
    for (size_t s = 0; sharded && s < spec->shards; ++s) {
      c.routed.push_back(sharded->records_routed(s));
    }
    return c;
  };

  // Phase 1: decorator clocks off, for the tracing overhead baseline. It
  // also measures spans per epoch, so that phase 2 is cut to fit the ring.
  PacedResult plain;
  double plain_cpu_per_record = 0;
  uint32_t traced_epochs = phase_epochs;
  if (ok) {
    times.on.store(false);
    const uint64_t spans0 = tracer.total_recorded();
    const Counters a = sample();
    ok = driver.Paced(phase_epochs, period_s, &plain);
    const Counters b = sample();
    plain_cpu_per_record =
        static_cast<double>(b.thread_cpu_ns - a.thread_cpu_ns) /
        static_cast<double>(plain.records);
    times.on.store(true);
    const double spans_per_epoch =
        static_cast<double>(tracer.total_recorded() - spans0) /
        std::max<uint32_t>(plain.epochs, 1);
    traced_epochs = std::min<uint32_t>(
        phase_epochs, static_cast<uint32_t>(0.8 * kSpanCapacity /
                                            std::max(spans_per_epoch, 1.0)));
  }

  // Phase 2: every layer timed.
  PacedResult traced;
  Counters a{}, b{};
  int64_t phase_start = 0;
  uint64_t spans_in_phase = 0;
  if (ok) {
    const uint64_t spans0 = tracer.total_recorded();
    a = sample();
    phase_start = NowNs();
    ok = driver.Paced(traced_epochs, period_s, &traced);
    b = sample();
    spans_in_phase = tracer.total_recorded() - spans0;
    if (spans_in_phase > kSpanCapacity) {
      std::fprintf(stderr, "span ring wrapped inside the traced phase\n");
      ok = false;
    }
  }
  const std::vector<cq::Span> spans = tracer.Snapshot();
  size_t operators = timed.NumOperators();
  double state_bytes = 0;
  for (const cq::QueryInfo& info : backend->ListQueries()) {
    auto bytes = backend->QueryStateBytes(info.id);
    if (bytes.ok()) state_bytes += static_cast<double>(*bytes);
  }
  const int64_t registers = times.registers.load();
  const double register_ms =
      registers > 0
          ? static_cast<double>(times.register_ns.load()) / 1e6 / registers
          : 0;
  ok = driver.Finish(server.port()) && ok;
  server.ShutdownAsync();
  loop.join();

  for (const std::string& e : driver.failures()) {
    std::fprintf(stderr, "failed operation: %s\n", e.c_str());
  }
  for (const std::string& e : driver.errors()) {
    std::fprintf(stderr, "check: %s\n", e.c_str());
  }
  if (traced.records == 0) {
    std::fprintf(stderr, "run did not complete its phases\n");
    return 1;
  }

  // Operator self time by layer, from the spans of the traced phase.
  double op_ns[5] = {0, 0, 0, 0, 0};
  double op_total_ns = 0;
  std::vector<double> queue_us;
  const char* prefixes[5] = {"src:", "flt:", "win:", "plan:", "sink:"};
  for (const cq::Span& s : spans) {
    if (s.start_ns < phase_start) continue;
    if (s.kind == cq::SpanKind::kQueue) {
      queue_us.push_back(static_cast<double>(s.duration_ns) / 1e3);
    } else if (s.kind == cq::SpanKind::kOp) {
      op_total_ns += static_cast<double>(s.duration_ns);
      for (int i = 0; i < 5; ++i) {
        if (s.name.rfind(prefixes[i], 0) == 0) {
          op_ns[i] += static_cast<double>(s.duration_ns);
        }
      }
    }
  }
  const double records = static_cast<double>(traced.records);
  const double frames = static_cast<double>(b.frames - a.frames);
  const double backend_ns = static_cast<double>(
      (b.push_ns - a.push_ns) + (b.watermark_ns - a.watermark_ns) +
      (b.poll_ns - a.poll_ns) + (b.other_ns - a.other_ns));
  const double thread_cpu = static_cast<double>(b.thread_cpu_ns -
                                                a.thread_cpu_ns);
  const double traced_cpu_per_record = thread_cpu / records;
  double skew = 1.0;
  if (!a.routed.empty()) {
    double max = 0, sum = 0;
    for (size_t s = 0; s < a.routed.size(); ++s) {
      const double n = static_cast<double>(b.routed[s] - a.routed[s]);
      max = std::max(max, n);
      sum += n;
    }
    skew = sum > 0 ? max / (sum / static_cast<double>(a.routed.size())) : 0;
  }
  std::vector<double> late = traced.late_us;
  std::printf(
      "# %s traced seed=%llu cores=%u build=%s shards=%zu | %u epochs, %.0f "
      "records, %llu spans in the traced phase (ring %zu)\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, spec->shards,
      traced.epochs, records, static_cast<unsigned long long>(spans_in_phase),
      kSpanCapacity);
  PrintResult(
      ok && driver.errors().empty(), driver.epochs_sent(),
      driver.failed_epochs(),
      {{"net.self_ns_per_record", (thread_cpu - backend_ns) / records, "ns"},
       {"net.data_frames_per_record", frames / records, "frames"},
       {"net.egress_bytes_per_record",
        static_cast<double>(b.bytes - a.bytes) / records, "bytes"},
       {"service.push_ns_per_record",
        static_cast<double>(b.push_ns - a.push_ns) / records, "ns"},
       {"service.watermark_us_per_epoch",
        static_cast<double>(b.watermark_ns - a.watermark_ns) / 1e3 /
            traced.epochs,
        "us"},
       {"service.register_ms_per_query", register_ms, "ms"},
       {"service.operators", static_cast<double>(operators), "count"},
       {"service.state_bytes", state_bytes, "bytes"},
       {"op.src_ns_per_record", op_ns[0] / records, "ns"},
       {"op.flt_ns_per_record", op_ns[1] / records, "ns"},
       {"op.win_ns_per_record", op_ns[2] / records, "ns"},
       {"op.plan_ns_per_record", op_ns[3] / records, "ns"},
       {"op.sink_ns_per_record", op_ns[4] / records, "ns"},
       {"op.win_deltas_per_record", (b.win_out - a.win_out) / records,
        "deltas"},
       {"runtime.feed_poll_ns_per_frame",
        frames > 0 ? static_cast<double>(b.poll_ns - a.poll_ns) / frames : 0,
        "ns"},
       {"runtime.queue_wait_us_p50", Quantile(&queue_us, 0.5), "us"},
       {"shard.route_ns_per_record",
        (static_cast<double>((b.push_ns - a.push_ns) +
                             (b.watermark_ns - a.watermark_ns)) -
         op_total_ns) /
            records,
        "ns"},
       {"shard.skew_ratio", skew, "ratio"},
       {"client.generator_late_us_p90", Quantile(&late, 0.9), "us"},
       {"traced_overhead_pct",
        plain_cpu_per_record > 0
            ? 100.0 * (traced_cpu_per_record - plain_cpu_per_record) /
                  plain_cpu_per_record
            : 0,
        "%"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S\n", argv[0]);
    return 2;
  }
  struct sigaction sa {};
  sa.sa_handler = perfbench::OnSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGALRM, &sa, nullptr);
  ::alarm(perfbench::kDeadlineSeconds);
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  return perfbench::Run(args);
}
