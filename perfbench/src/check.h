#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

// The output checker, built apart from the program: plain C++ over the
// generated inputs, linking no library of the system under test.
//
// Contract checked (the service's documented semantics): at each watermark
// instant tau a query's window holds the records with tau - w < ts <= tau,
// the SQL is evaluated over that window, and IStream emits the bag
// difference from the previous watermark instant. Results are compared per
// (query, instant) as multisets through a count plus an order-independent
// digest, so the receiving side only adds and hashes while a run is timed.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "workload.h"

namespace perfbench {

// Multiset summary of the rows of one (query, instant).
struct Cell {
  uint32_t count = 0;
  uint64_t digest = 0;  // sum of RowHash over the rows (mod 2^64)
  bool operator==(const Cell& o) const {
    return count == o.count && digest == o.digest;
  }
};

uint64_t RowHash(std::string_view row);

// Cells for queries [0, q) x epochs [1, epochs].
class Table {
 public:
  Table() = default;
  Table(size_t queries, uint32_t epochs)
      : queries_(queries), epochs_(epochs), cells_(queries * (epochs + 1)) {}

  Cell& at(size_t q, uint32_t e) { return cells_[e * queries_ + q]; }
  const Cell& at(size_t q, uint32_t e) const {
    return cells_[e * queries_ + q];
  }
  void Add(size_t q, uint32_t e, std::string_view row) {
    Cell& c = at(q, e);
    ++c.count;
    c.digest += RowHash(row);
  }
  size_t queries() const { return queries_; }
  uint32_t epochs() const { return epochs_; }

 private:
  size_t queries_ = 0;
  uint32_t epochs_ = 0;
  std::vector<Cell> cells_;
};

// What each query must output at each instant, plus the per-(query,
// instant) upper bound the method implies: a filter's IStream rows cannot
// outnumber the matching records that entered its window, an aggregate's
// the records that entered or left it, a join's the pairs formed with an
// entering record.
struct Expected {
  Table rows;
  Table bound;  // only .count is used
  std::vector<uint32_t> epoch_rows;  // total rows per instant, all queries
};

using RowFn =
    std::function<void(size_t query, uint32_t epoch, const std::string& row)>;

// Runs the reference over epochs[0..] (epoch numbers 1..size). `on_row`,
// when set, also sees every expected row as the program renders it.
Expected ComputeReference(const WorkloadSpec& spec,
                          const std::vector<Epoch>& epochs,
                          const RowFn& on_row = nullptr);

// True unless `row` (a filter query's result row) violates its predicate.
bool RowSatisfies(const QuerySpec& query, std::string_view row);

// Compares observed against expected for instants 1..through, skipping
// instants whose `skip` entry is set (failed operations); returns one
// message per mismatching (query, instant), capped at `max_messages` plus
// a count of the rest. Empty means the outputs are correct.
std::vector<std::string> Compare(const Expected& expected,
                                 const Table& observed, uint32_t through,
                                 const std::vector<uint8_t>* skip = nullptr,
                                 size_t max_messages = 8);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
