// Timed mode: starts `query_server --serve 0` as a child process on an
// ephemeral loopback port, drives it through set-up, a paced phase and a
// saturated phase, checks every output, and prints the end-to-end metrics.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "driver.h"
#include "report.h"
#include "workload.h"

namespace perfbench {
namespace {

// Share of --seconds spent in the paced phase; the rest is saturated.
constexpr double kPacedShare = 0.6;
constexpr int kBlocks = 10;
// Hard bound on one run, set-up included: the server is killed after it.
constexpr unsigned kDeadlineSeconds = 170;

volatile sig_atomic_t g_child = 0;

// Async-signal-safe: kill(2) and waitpid(2) only.
void KillChild() {
  pid_t pid = g_child;
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    g_child = 0;
  }
}

void OnSignal(int sig) {
  KillChild();
  ::_exit(128 + sig);
}

// With two or more CPUs, the server gets the upper half of them and the
// load generator the lower half, so the two never time-share a CPU:
// wake-ups across the loopback socket otherwise pull them together in some
// runs and not in others. The server gets more than one CPU when there are
// four or more, so that a server that runs its shards on threads of their
// own can use them.
void PinToCpus(bool server) {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 2) return;
  const long first_server_cpu = n - n / 2;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = server ? first_server_cpu : 0;
       c < (server ? n : first_server_cpu); ++c) {
    CPU_SET(c, &set);
  }
  ::sched_setaffinity(0, sizeof(set), &set);
}

// Spawns the server; returns its port (0 on failure) and its stdout pipe.
uint16_t SpawnServer(const WorkloadSpec& spec, int* out_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return 0;
  const std::string shards = std::to_string(spec.shards);
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) return 0;
  if (pid == 0) {
    // Dies with the benchmark even if the benchmark is killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    PinToCpus(/*server=*/true);
    ::dup2(fds[1], STDOUT_FILENO);
    const char* argv[] = {PERFBENCH_QUERY_SERVER, "--serve", "0", "--shards",
                          shards.c_str(), nullptr};
    ::execv(argv[0], const_cast<char* const*>(argv));
    ::_exit(127);
  }
  g_child = pid;
  ::close(fds[1]);
  *out_fd = fds[0];
  // "query_server listening on 127.0.0.1:PORT (...)"
  std::string text;
  const int64_t deadline = NowNs() + 30'000'000'000;
  while (NowNs() < deadline) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[256];
    ssize_t r = ::read(fds[0], buf, sizeof(buf));
    if (r <= 0) break;
    text.append(buf, static_cast<size_t>(r));
    size_t at = text.find("127.0.0.1:");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      return static_cast<uint16_t>(std::atoi(text.c_str() + at + 10));
    }
  }
  return 0;
}

uint64_t ReadU64(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long long v = 0;
  if (std::fscanf(f, "%llu", &v) != 1) v = 0;
  std::fclose(f);
  return v;
}

// CPU time (ns) of every thread of `pid` so far, from the scheduler.
uint64_t ProcessCpuNs(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  uint64_t total = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* ent = ::readdir(d)) {
      if (ent->d_name[0] == '.') continue;
      total += ReadU64(dir + "/" + ent->d_name + "/schedstat");
    }
    ::closedir(d);
  }
  return total;
}

// Peak resident set (VmHWM) in MiB.
double PeakRssMiB(pid_t pid) {
  FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/status").c_str(),
                       "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double paced_s = args.seconds * kPacedShare;
  const double saturated_s = args.seconds - paced_s;
  const double rpe = spec->records_per_epoch();
  const uint32_t paced_epochs =
      static_cast<uint32_t>(paced_s * spec->paced_records_per_s / rpe);
  const uint32_t saturated_epochs =
      static_cast<uint32_t>(saturated_s * spec->max_records_per_s / rpe) + 1;

  PinToCpus(/*server=*/false);
  Driver driver(*spec, args.seed);
  driver.Prepare(paced_epochs, saturated_epochs);

  int out_fd = -1;
  const int64_t spawn_ns = NowNs();
  const uint16_t port = SpawnServer(*spec, &out_fd);
  const pid_t pid = g_child;
  if (port == 0) {
    std::fprintf(stderr, "query_server did not start\n");
    KillChild();
    return 1;
  }
  const int64_t listening_ns = NowNs();
  bool ok = driver.Setup(port);
  const int64_t registered_ns = NowNs();
  ok = ok && driver.Warmup();
  const double setup_s = static_cast<double>(NowNs() - spawn_ns) / 1e9;

  // The phases alternate in kBlocks blocks, so that both see the same mix
  // of fast and slow stretches (on a shared virtual machine a core's speed
  // drifts over seconds). Throughput and CPU are means over all blocks of
  // their phase; each latency quantile is the median of its per-block
  // values, so that a host stall inside one or two blocks does not move it.
  // Only p50 is reported as a metric: on a shared host p90 and p99 follow
  // the host's stalls more than the program (both go in the summary line).
  PacedResult paced;
  SaturatedResult sat;
  uint64_t cpu_ns = 0;
  std::vector<double> block_p50, block_p90;
  for (int b = 0; b < kBlocks && ok; ++b) {
    const uint64_t cpu0 = ProcessCpuNs(pid);
    const uint64_t records0 = paced.records;
    const size_t lat0 = paced.latency_ms.size();
    ok = driver.Paced(paced_epochs / kBlocks, rpe / spec->paced_records_per_s,
                      &paced);
    cpu_ns += ProcessCpuNs(pid) - cpu0;
    if (paced.records == records0) ok = false;
    std::vector<double> block(paced.latency_ms.begin() + lat0,
                              paced.latency_ms.end());
    if (!block.empty()) {
      block_p50.push_back(Quantile(&block, 0.50));
      block_p90.push_back(Quantile(&block, 0.90));
    }
    if (ok) ok = driver.Saturated(saturated_s / kBlocks, &sat);
  }
  const double rss_mib = PeakRssMiB(pid);
  ok = driver.Finish(port) && ok;
  KillChild();
  ::close(out_fd);

  for (const std::string& e : driver.failures()) {
    std::fprintf(stderr, "failed operation: %s\n", e.c_str());
  }
  for (const std::string& e : driver.errors()) {
    std::fprintf(stderr, "check: %s\n", e.c_str());
  }
  if (paced.records == 0 || sat.records == 0 || sat.seconds <= 0) {
    std::fprintf(stderr, "run did not complete its phases\n");
    return 1;
  }

  std::vector<double> lat = paced.latency_ms;
  std::vector<double> late = paced.late_us;
  const double p50 = Quantile(&block_p50, 0.50);
  const double p90 = Quantile(&block_p90, 0.50);
  const double pooled_p90 = Quantile(&lat, 0.90);
  const double p99 = Quantile(&lat, 0.99);
  const double late_p50 = Quantile(&late, 0.5);
  const double late_p90 = Quantile(&late, 0.9);
  const double late_max = late.empty() ? 0.0 : late.back();
  const double cpu_us = static_cast<double>(cpu_ns) / 1e3 /
                        static_cast<double>(paced.records);
  const double rate = static_cast<double>(sat.records) / sat.seconds;
  std::printf(
      "# %s seed=%llu cores=%u build=%s shards=%zu | set-up %.3f s "
      "(listening %.3f, registered %.3f) | paced %u epochs, %llu records at "
      "%.0f records/s: latency (median of %zu blocks) p50 %.3f p90 %.3f, "
      "pooled p90 %.3f p99 %.3f ms over %zu epochs, generator late p50 %.1f "
      "p90 %.1f max %.1f us, %u backlog waits, server CPU %.2f us/record | "
      "saturated %.0f records/s over %.2f s\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, spec->shards,
      setup_s, static_cast<double>(listening_ns - spawn_ns) / 1e9,
      static_cast<double>(registered_ns - spawn_ns) / 1e9, paced.epochs,
      static_cast<unsigned long long>(paced.records),
      spec->paced_records_per_s, block_p90.size(), p50, p90, pooled_p90, p99,
      lat.size(), late_p50, late_p90, late_max, paced.backlog_waits, cpu_us,
      rate, sat.seconds);
  PrintResult(ok && driver.errors().empty(), driver.epochs_sent(),
              driver.failed_epochs(),
              {{"setup_s", setup_s, "s"},
               {"records_per_s", rate, "records/s"},
               {"result_latency_p50_ms", p50, "ms"},
               {"server_cpu_us_per_record", cpu_us, "us"},
               {"peak_rss_mb", rss_mib, "MiB"}});
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
  ::sigaction(SIGHUP, &sa, nullptr);
  ::sigaction(SIGALRM, &sa, nullptr);
  ::alarm(perfbench::kDeadlineSeconds);
  // Wake the sender at each epoch's due time, not up to 50 us after it.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  return perfbench::Run(args);
}
