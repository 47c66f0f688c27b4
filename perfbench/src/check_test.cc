// Feeds the output checker deliberately corrupted outputs and asserts that
// each one is rejected, and that the uncorrupted output passes.
//
//   perfbench_check_test        exit 0 when every case holds

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "check.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Row {
  size_t q;
  uint32_t e;
  std::string text;
};

int g_failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++g_failures;
}

Table Observe(const std::vector<Row>& rows, size_t queries, uint32_t epochs) {
  Table t(queries, epochs);
  for (const Row& r : rows) t.Add(r.q, r.e, r.text);
  return t;
}

// The row's `sym` key number: "('K123', ...".
uint32_t KeyOf(const std::string& row) {
  return static_cast<uint32_t>(std::stoul(row.substr(3)));
}

void CheckWorkload(const std::string& name, uint32_t epochs) {
  const WorkloadSpec& spec = *FindWorkload(name);
  std::vector<Epoch> inputs;
  GenerateEpochs(spec, /*seed=*/7, 1, epochs, &inputs);
  std::vector<Row> rows;
  const Expected want = ComputeReference(
      spec, inputs, [&](size_t q, uint32_t e, const std::string& text) {
        rows.push_back({q, e, text});
      });
  const size_t nq = spec.queries.size();
  // Corrupt the last instant but one, so that "next instant" exists.
  const uint32_t target = epochs - 1;
  size_t pick = rows.size();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].e == target) {
      pick = i;
      break;
    }
  }
  Expect(pick < rows.size(), name + ": the reference emits rows");
  if (pick == rows.size()) return;

  auto rejected = [&](const std::vector<Row>& corrupt) {
    return !Compare(want, Observe(corrupt, nq, epochs), epochs).empty();
  };
  Expect(!rejected(rows), name + ": the correct output is accepted");

  std::vector<Row> dropped = rows;
  dropped.erase(dropped.begin() + static_cast<long>(pick));
  Expect(rejected(dropped), name + ": one frame dropped is rejected");

  std::vector<Row> changed = rows;
  std::string& text = changed[pick].text;
  const size_t digit = text.find_last_of("0123456789");
  text[digit] = text[digit] == '9' ? '0' : static_cast<char>(text[digit] + 1);
  Expect(rejected(changed), name + ": one value changed is rejected");

  std::vector<Row> moved = rows;
  moved[pick].e += 1;
  Expect(rejected(moved), name + ": one row moved to the next instant is rejected");

  // Rows of one shard's keys at one instant delivered twice.
  std::vector<Row> doubled = rows;
  const uint32_t shard_key = KeyOf(rows[pick].text) % 4;
  for (const Row& r : rows) {
    if (r.e == target && KeyOf(r.text) % 4 == shard_key) doubled.push_back(r);
  }
  Expect(rejected(doubled), name + ": one shard's rows duplicated is rejected");

  if (spec.queries[0].kind == QueryKind::kFilter) {
    const QuerySpec& q = spec.queries[0];
    Expect(RowSatisfies(q, "('K1', " + std::to_string(q.lo) + ")") &&
               !RowSatisfies(q, "('K1', " + std::to_string(q.hi) + ")"),
           name + ": a row outside the predicate is flagged");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  using perfbench::CheckWorkload;
  CheckWorkload("filter_fanout", 60);
  CheckWorkload("grouped_agg", 450);
  CheckWorkload("stream_join", 60);
  CheckWorkload("grouped_agg_sharded", 450);
  std::printf("%s\n", perfbench::g_failures == 0 ? "PASS" : "FAILED");
  return perfbench::g_failures == 0 ? 0 : 1;
}
