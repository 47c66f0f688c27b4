#include "check.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Signed row changes at one instant, keyed by a packed row; netted by
// Flush into the positive part of the bag difference.
class DeltaBag {
 public:
  void Add(uint64_t row, int sign) { changes_.emplace_back(row, sign); }
  template <typename Fn>
  void Flush(Fn&& emit) {
    std::sort(changes_.begin(), changes_.end());
    for (size_t i = 0; i < changes_.size();) {
      size_t j = i;
      int net = 0;
      for (; j < changes_.size() && changes_[j].first == changes_[i].first;
           ++j) {
        net += changes_[j].second;
      }
      for (int k = 0; k < net; ++k) emit(changes_[i].first);
      i = j;
    }
    changes_.clear();
  }

 private:
  std::vector<std::pair<uint64_t, int>> changes_;
};

class Reference {
 public:
  Reference(const WorkloadSpec& spec, const std::vector<Epoch>& epochs,
            const RowFn& on_row)
      : spec_(spec), epochs_(epochs), on_row_(on_row) {
    const uint32_t n = static_cast<uint32_t>(epochs.size());
    out_.rows = Table(spec.queries.size(), n);
    out_.bound = Table(spec.queries.size(), n);
    out_.epoch_rows.assign(n + 1, 0);
  }

  Expected Run() {
    for (size_t q = 0; q < spec_.queries.size(); ++q) {
      switch (spec_.queries[q].kind) {
        case QueryKind::kFilter:
          RunFilter(q);
          break;
        case QueryKind::kAggregate:
          RunAggregate(q);
          break;
        case QueryKind::kJoin:
          RunJoin(q);
          break;
      }
    }
    return std::move(out_);
  }

 private:
  // Records of epoch e that leave the window at instant e (none early on).
  const Epoch* Expiring(uint32_t e) const {
    uint32_t w = spec_.window_epochs();
    return e > w ? &epochs_[e - w - 1] : nullptr;
  }

  void Emit(size_t q, uint32_t e, const std::string& row) {
    out_.rows.Add(q, e, row);
    ++out_.epoch_rows[e];
    if (on_row_) on_row_(q, e, row);
  }

  // SELECT sym, price ... WHERE lo <= price < hi. Without state: the bag
  // difference per row is (matching arrivals - matching expiries)+.
  void RunFilter(size_t q) {
    const QuerySpec& qs = spec_.queries[q];
    DeltaBag bag;
    for (uint32_t e = 1; e <= epochs_.size(); ++e) {
      auto pass = [&](const Rec& r) { return r.a >= qs.lo && r.a < qs.hi; };
      for (const Rec& r : epochs_[e - 1].trades) {
        if (!pass(r)) continue;
        bag.Add((uint64_t{r.key} << 20) | static_cast<uint64_t>(r.a), +1);
        ++out_.bound.at(q, e).count;
      }
      if (const Epoch* old = Expiring(e)) {
        for (const Rec& r : old->trades) {
          if (pass(r)) {
            bag.Add((uint64_t{r.key} << 20) | static_cast<uint64_t>(r.a), -1);
          }
        }
      }
      bag.Flush([&](uint64_t row) {
        Emit(q, e,
             "('" + SymName(static_cast<uint32_t>(row >> 20)) + "', " +
                 std::to_string(row & 0xfffff) + ")");
      });
    }
  }

  // SELECT sym, SUM(qty), COUNT(*), MAX(price) ... GROUP BY sym. One row
  // per non-empty group; a group is emitted when its row differs from the
  // one it had at the previous instant (or it was empty then).
  void RunAggregate(size_t q) {
    struct Group {
      int64_t sum = 0;
      int64_t count = 0;
      // Monotonic (epoch, price) queue for the sliding MAX: records leave
      // whole epochs at a time, oldest first.
      std::deque<std::pair<uint32_t, int64_t>> maxq;
      bool had_row = false;
      int64_t row_sum = 0, row_count = 0, row_max = 0;
    };
    std::unordered_map<uint32_t, Group> groups;
    std::vector<uint32_t> touched;
    for (uint32_t e = 1; e <= epochs_.size(); ++e) {
      touched.clear();
      if (const Epoch* old = Expiring(e)) {
        const uint32_t gone = e - spec_.window_epochs();
        for (const Rec& r : old->trades) {
          Group& g = groups[r.key];
          g.sum -= r.b;
          --g.count;
          while (!g.maxq.empty() && g.maxq.front().first <= gone) {
            g.maxq.pop_front();
          }
          touched.push_back(r.key);
        }
        out_.bound.at(q, e).count += static_cast<uint32_t>(old->trades.size());
      }
      for (const Rec& r : epochs_[e - 1].trades) {
        Group& g = groups[r.key];
        g.sum += r.b;
        ++g.count;
        while (!g.maxq.empty() && g.maxq.back().second <= r.a) {
          g.maxq.pop_back();
        }
        g.maxq.emplace_back(e, r.a);
        touched.push_back(r.key);
      }
      out_.bound.at(q, e).count +=
          static_cast<uint32_t>(epochs_[e - 1].trades.size());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      for (uint32_t key : touched) {
        auto it = groups.find(key);
        Group& g = it->second;
        if (g.count == 0) {
          groups.erase(it);
          continue;
        }
        const int64_t mx = g.maxq.front().second;
        if (g.had_row && g.row_sum == g.sum && g.row_count == g.count &&
            g.row_max == mx) {
          continue;
        }
        g.had_row = true;
        g.row_sum = g.sum;
        g.row_count = g.count;
        g.row_max = mx;
        Emit(q, e,
             "('" + SymName(key) + "', " + std::to_string(g.sum) + ", " +
                 std::to_string(g.count) + ", " + std::to_string(mx) + ")");
      }
    }
  }

  // SELECT t.sym, t.price, q.bid ... WHERE t.sym = q.sym. Applies the
  // instant's four window changes in sequence (trades leave, quotes leave,
  // trades enter, quotes enter), each joined against the other side's
  // current window.
  void RunJoin(size_t q) {
    using Side = std::unordered_map<uint32_t, std::deque<std::pair<uint32_t, int64_t>>>;
    Side trades, quotes;
    DeltaBag bag;
    auto row_of = [](uint32_t key, int64_t price, int64_t bid) {
      return (uint64_t{key} << 40) | (static_cast<uint64_t>(price) << 20) |
             static_cast<uint64_t>(bid);
    };
    auto expire = [](Side* side, const std::vector<Rec>& recs,
                     uint32_t gone) {
      for (const Rec& r : recs) {
        auto& d = (*side)[r.key];
        while (!d.empty() && d.front().first <= gone) d.pop_front();
      }
    };
    for (uint32_t e = 1; e <= epochs_.size(); ++e) {
      const Epoch& now = epochs_[e - 1];
      if (const Epoch* old = Expiring(e)) {
        const uint32_t gone = e - spec_.window_epochs();
        for (const Rec& t : old->trades) {
          for (const auto& [ep, bid] : quotes[t.key]) {
            bag.Add(row_of(t.key, t.a, bid), -1);
          }
        }
        expire(&trades, old->trades, gone);
        for (const Rec& qt : old->quotes) {
          for (const auto& [ep, price] : trades[qt.key]) {
            bag.Add(row_of(qt.key, price, qt.a), -1);
          }
        }
        expire(&quotes, old->quotes, gone);
      }
      uint32_t formed = 0;
      for (const Rec& t : now.trades) {
        for (const auto& [ep, bid] : quotes[t.key]) {
          bag.Add(row_of(t.key, t.a, bid), +1);
          ++formed;
        }
        trades[t.key].emplace_back(e, t.a);
      }
      for (const Rec& qt : now.quotes) {
        for (const auto& [ep, price] : trades[qt.key]) {
          bag.Add(row_of(qt.key, price, qt.a), +1);
          ++formed;
        }
        quotes[qt.key].emplace_back(e, qt.a);
      }
      out_.bound.at(q, e).count += formed;
      bag.Flush([&](uint64_t row) {
        Emit(q, e,
             "('" + SymName(static_cast<uint32_t>(row >> 40)) + "', " +
                 std::to_string((row >> 20) & 0xfffff) + ", " +
                 std::to_string(row & 0xfffff) + ")");
      });
    }
  }

  const WorkloadSpec& spec_;
  const std::vector<Epoch>& epochs_;
  const RowFn& on_row_;
  Expected out_;
};

}  // namespace

uint64_t RowHash(std::string_view row) {
  // FNV-1a finalised through splitmix64 so that sums of hashes stay well
  // mixed (an additive digest of raw FNV values would cancel too easily).
  uint64_t z = Fnv1a(row);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Expected ComputeReference(const WorkloadSpec& spec,
                          const std::vector<Epoch>& epochs,
                          const RowFn& on_row) {
  return Reference(spec, epochs, on_row).Run();
}

bool RowSatisfies(const QuerySpec& query, std::string_view row) {
  if (query.kind != QueryKind::kFilter) return true;
  // "('K3', 123)": the price follows the first ", ".
  size_t comma = row.find(", ");
  if (comma == std::string_view::npos) return false;
  int64_t price = 0;
  size_t i = comma + 2;
  if (i >= row.size() || row[i] < '0' || row[i] > '9') return false;
  for (; i < row.size() && row[i] >= '0' && row[i] <= '9'; ++i) {
    price = price * 10 + (row[i] - '0');
  }
  return price >= query.lo && price < query.hi;
}

std::vector<std::string> Compare(const Expected& expected,
                                 const Table& observed, uint32_t through,
                                 const std::vector<uint8_t>* skip,
                                 size_t max_messages) {
  std::vector<std::string> errors;
  size_t more = 0;
  auto report = [&](std::string msg) {
    if (errors.size() < max_messages) {
      errors.push_back(std::move(msg));
    } else {
      ++more;
    }
  };
  for (uint32_t e = 1; e <= through; ++e) {
    if (skip != nullptr && e < skip->size() && (*skip)[e]) continue;
    for (size_t q = 0; q < expected.rows.queries(); ++q) {
      const Cell& want = expected.rows.at(q, e);
      const Cell& got = observed.at(q, e);
      const std::string where =
          "query " + std::to_string(q) + " epoch " + std::to_string(e);
      if (got.count > expected.bound.at(q, e).count) {
        report(where + ": " + std::to_string(got.count) +
               " rows exceed the bound " +
               std::to_string(expected.bound.at(q, e).count));
      }
      if (!(want == got)) {
        report(where + ": got " + std::to_string(got.count) +
               " rows, want " + std::to_string(want.count) +
               (want.count == got.count ? " (same count, rows differ)" : ""));
      }
    }
  }
  if (more > 0) {
    errors.push_back("... and " + std::to_string(more) + " more mismatches");
  }
  return errors;
}

}  // namespace perfbench
