#include "driver.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace perfbench {
namespace {

// An epoch whose answer makes no progress for this long fails the run.
constexpr int64_t kStallNs = 20'000'000'000;

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadExact(int fd, char* p, size_t n) {
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool ParseU64(std::string_view s, size_t* pos, uint64_t* out) {
  size_t i = *pos;
  uint64_t v = 0;
  if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + static_cast<uint64_t>(s[i] - '0');
  }
  *pos = i;
  *out = v;
  return true;
}

// Incremental length-prefixed frame splitter for one connection.
struct FrameBuffer {
  std::string buf;
  size_t pos = 0;

  template <typename Fn>
  void Drain(Fn&& on_frame) {
    while (buf.size() - pos >= 4) {
      const auto* h = reinterpret_cast<const unsigned char*>(buf.data() + pos);
      const size_t n = (size_t{h[0]} << 24) | (size_t{h[1]} << 16) |
                       (size_t{h[2]} << 8) | size_t{h[3]};
      if (buf.size() - pos - 4 < n) break;
      on_frame(std::string_view(buf.data() + pos + 4, n));
      pos += 4 + n;
    }
    if (pos > (1u << 16) && pos * 2 > buf.size()) {
      buf.erase(0, pos);
      pos = 0;
    }
  }
};

}  // namespace

int64_t NowNs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double SumSamples(std::string_view text, std::string_view name,
                  std::string_view filter) {
  double sum = -1;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.substr(0, name.size()) != name || line.size() <= name.size() ||
        (line[name.size()] != '{' && line[name.size()] != ' ') ||
        line.find(filter) == std::string_view::npos) {
      continue;
    }
    size_t sp = line.rfind(' ');
    sum = std::max(sum, 0.0) +
          std::strtod(std::string(line.substr(sp + 1)).c_str(), nullptr);
  }
  return sum;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  // Linear interpolation between closest ranks.
  double pos = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*v)[lo] * (1 - frac) + (*v)[hi] * frac;
}

Driver::Driver(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed) {}

Driver::~Driver() {
  stop_.store(true);
  if (receiver_.joinable()) receiver_.join();
  if (push_fd_ >= 0) ::close(push_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Driver::Prepare(uint32_t paced_epochs, uint32_t saturated_epochs) {
  const uint32_t total = spec_.warmup_epochs + paced_epochs + saturated_epochs;
  epochs_.reserve(total);
  GenerateEpochs(spec_, seed_, 1, total, &epochs_);
  expected_ = ComputeReference(spec_, epochs_);
  observed_ = Table(spec_.queries.size(), total);
  cum_commands_.assign(total + 1, 0);
  remaining_.assign(total + 1, 0);
  data_done_ns_.assign(total + 1, 0);
  complete_ns_.assign(total + 1, 0);
  failed_.assign(total + 1, 0);
  for (uint32_t e = 1; e <= total; ++e) {
    cum_commands_[e] = cum_commands_[e - 1] + epochs_[e - 1].commands;
    remaining_[e] = static_cast<int32_t>(expected_.epoch_rows[e]);
  }
}

bool Driver::Command(int fd, const std::string& payload, std::string* reply) {
  const std::string wire = EncodeFrame(payload);
  unsigned char hdr[4];
  if (!WriteAll(fd, wire.data(), wire.size()) ||
      !ReadExact(fd, reinterpret_cast<char*>(hdr), 4)) {
    Fail("connection lost during: " + payload);
    return false;
  }
  const size_t n = (size_t{hdr[0]} << 24) | (size_t{hdr[1]} << 16) |
                   (size_t{hdr[2]} << 8) | size_t{hdr[3]};
  reply->resize(n);
  if (!ReadExact(fd, reply->data(), n)) {
    Fail("connection lost during: " + payload);
    return false;
  }
  if (reply->rfind("OK", 0) != 0) {
    Fail("'" + payload + "' -> " + *reply);
    return false;
  }
  return true;
}

bool Driver::Setup(uint16_t port) {
  push_fd_ = Connect(port);
  listen_fd_ = Connect(port);
  if (push_fd_ < 0 || listen_fd_ < 0) {
    Fail("cannot connect to 127.0.0.1:" + std::to_string(port));
    return false;
  }
  std::string reply;
  for (const std::string& cmd : StreamCommands(spec_)) {
    if (!Command(push_fd_, cmd, &reply)) return false;
  }
  for (size_t q = 0; q < spec_.queries.size(); ++q) {
    if (!Command(push_fd_, "REGISTER " + spec_.queries[q].sql, &reply)) {
      return false;
    }
    const std::string qid = reply.substr(reply.find("id=") + 3);
    if (!Command(listen_fd_, "LISTEN " + qid, &reply)) return false;
    size_t pos = reply.find("sub=");
    uint64_t sid = 0;
    if (pos == std::string::npos || !ParseU64(reply, &(pos += 4), &sid) ||
        sid > 1'000'000) {
      Fail("unexpected LISTEN reply: " + reply);
      return false;
    }
    if (sid_query_.size() <= sid) sid_query_.resize(sid + 1, SIZE_MAX);
    sid_query_[sid] = q;
  }
  receiver_ = std::thread([this] { ReceiveLoop(); });
  return true;
}

bool Driver::SendEpoch() {
  const uint32_t e = sent_ + 1;
  const Epoch& ep = epochs_[e - 1];
  // Published before the first byte: no DATA frame for this instant may
  // arrive before this point.
  wm_sent_.store(e, std::memory_order_release);
  if (!WriteAll(push_fd_, ep.wire.data(), ep.wire.size())) {
    Fail("connection lost while sending epoch " + std::to_string(e));
    return false;
  }
  sent_ = e;
  records_sent_ += ep.records();
  return true;
}

bool Driver::WaitCompleted(uint32_t e) {
  std::unique_lock<std::mutex> lock(mu_);
  uint32_t seen = completed_;
  int64_t last_progress = NowNs();
  while (completed_ < e && !dead_) {
    cv_.wait_for(lock, std::chrono::milliseconds(500));
    if (completed_ != seen) {
      seen = completed_;
      last_progress = NowNs();
    } else if (NowNs() - last_progress > kStallNs) {
      errors_.push_back("stalled: epoch " + std::to_string(completed_ + 1) +
                        " unanswered for " +
                        std::to_string(kStallNs / 1'000'000'000) + " s");
      dead_ = true;
    }
  }
  return !dead_;
}

bool Driver::Warmup() {
  while (sent_ < spec_.warmup_epochs) {
    if (sent_ >= kInflightEpochs &&
        !WaitCompleted(sent_ + 1 - kInflightEpochs)) {
      return false;
    }
    if (!SendEpoch()) return false;
  }
  return WaitCompleted(sent_);
}

bool Driver::Paced(uint32_t epochs, double period_s, PacedResult* out) {
  const uint32_t first = sent_ + 1;
  epochs = std::min(epochs, epochs_available());
  std::vector<int64_t> due(epochs);
  const int64_t period_ns = static_cast<int64_t>(period_s * 1e9);
  const int64_t start = NowNs() + period_ns;
  const uint64_t records_before = records_sent_;
  for (uint32_t k = 0; k < epochs; ++k) {
    due[k] = start + static_cast<int64_t>(k) * period_ns;
    timespec ts{static_cast<time_t>(due[k] / 1'000'000'000),
                static_cast<long>(due[k] % 1'000'000'000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
    if (sent_ >= kPacedMaxBacklog) {
      bool behind;
      {
        std::lock_guard<std::mutex> lock(mu_);
        behind = completed_ + kPacedMaxBacklog <= sent_;
      }
      if (behind) {
        ++out->backlog_waits;
        if (!WaitCompleted(sent_ + 1 - kPacedMaxBacklog)) return false;
      }
    }
    out->late_us.push_back(static_cast<double>(NowNs() - due[k]) / 1e3);
    if (!SendEpoch()) return false;
  }
  if (!WaitCompleted(sent_)) return false;
  out->records += records_sent_ - records_before;
  out->epochs += epochs;
  std::lock_guard<std::mutex> lock(mu_);  // orders the receiver's writes
  for (uint32_t k = 0; k < epochs; ++k) {
    const uint32_t e = first + k;
    if (expected_.epoch_rows[e] == 0) continue;
    out->latency_ms.push_back(static_cast<double>(data_done_ns_[e] - due[k]) /
                              1e6);
  }
  return true;
}

bool Driver::Saturated(double seconds, SaturatedResult* out) {
  const uint32_t first = sent_ + 1;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end && epochs_available() > 0) {
    if (sent_ + 1 > first + kInflightEpochs - 1) {
      // Closed loop: wait until at most kInflightEpochs - 1 are unanswered.
      if (!WaitCompleted(sent_ + 1 - kInflightEpochs)) return false;
      if (NowNs() >= end) break;
    }
    if (!SendEpoch()) return false;
  }
  if (!WaitCompleted(sent_)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t last = start;
  for (uint32_t e = first; e <= sent_; ++e) {
    if (complete_ns_[e] > end) continue;
    out->records += epochs_[e - 1].records();
    last = std::max(last, complete_ns_[e]);
  }
  // Normally the whole window; shorter only if the inputs ran out first.
  const int64_t span = epochs_available() == 0 ? last - start : end - start;
  out->seconds += static_cast<double>(span) / 1e9;
  return true;
}

void Driver::Fail(const std::string& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_.size() < 16) errors_.push_back(msg);
}

void Driver::ReceiveLoop() {
  FrameBuffer bufs[2];
  const int fds[2] = {push_fd_, listen_fd_};
  std::vector<char> chunk(1 << 16);
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd[2] = {{fds[0], POLLIN, 0}, {fds[1], POLLIN, 0}};
    int n = ::poll(pfd, 2, 50);
    if (n < 0 && errno != EINTR) break;
    if (n <= 0) continue;
    for (int i = 0; i < 2; ++i) {
      if ((pfd[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ssize_t r = ::recv(fds[i], chunk.data(), chunk.size(), MSG_DONTWAIT);
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) {
        Fail("server closed the connection");
        std::lock_guard<std::mutex> lock(mu_);
        dead_ = true;
        cv_.notify_all();
        return;
      }
      if (r < 0) continue;
      bytes_.fetch_add(static_cast<uint64_t>(r), std::memory_order_relaxed);
      bufs[i].buf.append(chunk.data(), static_cast<size_t>(r));
      bufs[i].Drain([&](std::string_view f) { OnFrame(i == 1, f); });
    }
    AdvanceCompletion(NowNs());
  }
}

void Driver::OnFrame(bool data_conn, std::string_view f) {
  const uint32_t total = static_cast<uint32_t>(epochs_.size());
  if (!data_conn) {
    // Replies arrive in command order: map this one to its epoch.
    while (ack_epoch_ <= total && cum_commands_[ack_epoch_] <= acks_) {
      ++ack_epoch_;
    }
    ++acks_;
    if (f.substr(0, 2) != "OK" && ack_epoch_ <= total) {
      if (!failed_[ack_epoch_]) {
        failed_[ack_epoch_] = 1;
        if (failures_.size() < 4) {
          failures_.push_back("epoch " + std::to_string(ack_epoch_) + ": " +
                              std::string(f));
        }
      }
    }
    return;
  }
  // "DATA <sid> t=<ts> <row>"
  size_t pos = 5;
  uint64_t sid = 0, ts = 0;
  if (f.substr(0, 5) != "DATA " || !ParseU64(f, &pos, &sid) ||
      f.substr(pos, 3) != " t=" || !ParseU64(f, &(pos += 3), &ts) ||
      pos >= f.size() || sid >= sid_query_.size() ||
      sid_query_[sid] == SIZE_MAX) {
    Fail("unexpected frame: " + std::string(f.substr(0, 80)));
    return;
  }
  const std::string_view row = f.substr(pos + 1);
  const uint64_t e = ts / static_cast<uint64_t>(kEpochTs);
  if (ts % static_cast<uint64_t>(kEpochTs) != 0 || e == 0 ||
      e > total) {
    Fail("result for an instant no watermark named: " + std::string(f));
    return;
  }
  const size_t q = sid_query_[sid];
  data_frames_.fetch_add(1, std::memory_order_relaxed);
  if (e > wm_sent_.load(std::memory_order_acquire)) ++early_rows_;
  if (!RowSatisfies(spec_.queries[q], row)) ++predicate_violations_;
  observed_.Add(q, static_cast<uint32_t>(e), row);
  if (--remaining_[e] == 0) data_done_ns_[e] = NowNs();
}

void Driver::AdvanceCompletion(int64_t now) {
  const uint32_t limit = wm_sent_.load(std::memory_order_acquire);
  uint32_t e = next_complete_;
  while (e <= limit && acks_ >= cum_commands_[e] && remaining_[e] <= 0) {
    complete_ns_[e] = now;
    ++e;
  }
  if (e == next_complete_) return;
  next_complete_ = e;
  std::lock_guard<std::mutex> lock(mu_);
  completed_ = e - 1;
  cv_.notify_all();
}

bool Driver::Finish(uint16_t port) {
  bool ok = WaitCompleted(sent_);
  stop_.store(true);
  if (receiver_.joinable()) receiver_.join();
  if (next_complete_ <= sent_) {
    const uint32_t e = next_complete_;
    errors_.push_back("epoch " + std::to_string(e) + " unanswered: " +
                      std::to_string(remaining_[e]) + " of " +
                      std::to_string(expected_.epoch_rows[e]) +
                      " result rows and " +
                      std::to_string(cum_commands_[e] -
                                     std::min(acks_, cum_commands_[e])) +
                      " replies missing");
  }
  for (uint32_t e = 1; e <= sent_; ++e) failed_epochs_ += failed_[e];

  // Outputs of every sent epoch against the reference (failed epochs were
  // already reported through their ERR replies).
  std::vector<std::string> mismatches =
      Compare(expected_, observed_, sent_, &failed_);
  // Rows for instants beyond the last watermark sent must not exist.
  for (uint32_t e = sent_ + 1; e <= observed_.epochs(); ++e) {
    for (size_t q = 0; q < observed_.queries(); ++q) {
      if (observed_.at(q, e).count != 0) {
        mismatches.push_back("rows for unsent epoch " + std::to_string(e));
      }
    }
  }
  for (std::string& m : mismatches) errors_.push_back(std::move(m));
  if (early_rows_ > 0) {
    errors_.push_back(std::to_string(early_rows_) +
                      " DATA rows arrived before their WATERMARK was sent");
  }
  if (predicate_violations_ > 0) {
    errors_.push_back(std::to_string(predicate_violations_) +
                      " filter rows violate their query's predicate");
  }

  // Instruments on the same port: nothing dropped, nobody evicted.
  int fd = Connect(port);
  std::string http;
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (fd >= 0 && WriteAll(fd, req, sizeof(req) - 1)) {
    char buf[1 << 14];
    ssize_t r;
    while ((r = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      http.append(buf, static_cast<size_t>(r));
    }
  }
  if (fd >= 0) ::close(fd);
  if (http.find("HTTP/1.0 200") != 0) {
    errors_.push_back("GET /metrics failed");
  } else {
    const double drops =
        SumSamples(http, "cq_service_subscription_drops_total");
    const double evicted = SumSamples(http, "cq_net_evicted_total");
    if (drops < 0 || evicted < 0) {
      errors_.push_back("/metrics lacks the drop or eviction counters");
    }
    if (drops > 0) {
      errors_.push_back("cq_service_subscription_drops_total = " +
                        std::to_string(drops));
    }
    if (evicted > 0) {
      errors_.push_back("cq_net_evicted_total = " + std::to_string(evicted));
    }
  }
  return ok && errors_.empty();
}

}  // namespace perfbench
