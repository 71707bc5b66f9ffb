// Self-test of the benchmark's correctness checks: each check is fed a
// right result (must pass) and a deliberately wrong one (must be
// rejected). Run with `python3 perfbench/run.py --selftest`.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct outcome {
  int failures = 0;
  void expect(const char* name, bool accepts_right, bool rejects_wrong) {
    std::printf("%-34s right:%s wrong:%s\n", name,
                accepts_right ? "accepted" : "REJECTED",
                rejects_wrong ? "rejected" : "ACCEPTED");
    if (!accepts_right || !rejects_wrong) ++failures;
  }
};

leishen::service::monitor_incident make(std::uint64_t block, std::uint64_t tx,
                                        const char* borrower,
                                        leishen::core::attack_pattern p) {
  leishen::service::monitor_incident inc;
  inc.block_number = block;
  inc.incident.tx_index = tx;
  inc.incident.borrower_tag = borrower;
  leishen::core::pattern_match m;
  m.pattern = p;
  m.counterparty = "Victim";
  inc.incident.matches.push_back(m);
  return inc;
}

}  // namespace

int run_selftest() {
  using leishen::core::attack_pattern;
  outcome o;

  const incident_list right = {make(10, 1, "A", attack_pattern::krp),
                               make(11, 2, "B", attack_pattern::sbs)};
  incident_list dropped = right;
  dropped.pop_back();
  incident_list altered = right;
  altered[1].incident.borrower_tag = "C";
  o.expect("same incidents (missing)", check_same_incidents(right, right).empty(),
           !check_same_incidents(right, dropped).empty());
  o.expect("same incidents (altered)", true,
           !check_same_incidents(right, altered).empty());

  o.expect("prefilter accounting", check_prefilter_accounting(3, 7, 10).empty(),
           !check_prefilter_accounting(3, 6, 10).empty());

  o.expect("watermark", check_watermark(100, 100).empty(),
           !check_watermark(99, 100).empty());

  const std::vector<expected_flag> flags = {{10, 1, true, "bZx-1"},
                                            {12, 3, false, "Harvest"}};
  o.expect("known attacks (missed detection)",
           check_known_attacks(flags, {{1, 10, 1}}).empty(),
           !check_known_attacks(flags, {}).empty());
  o.expect("known attacks (unexpected flag)", true,
           !check_known_attacks(flags, {{1, 10, 1}, {2, 12, 3}}).empty());

  o.expect("visible after due",
           check_visible_after_due({{10, 1.0, 1.2}}).empty(),
           !check_visible_after_due({{10, 1.0, 0.9}}).empty());

  const std::vector<page_item> want = {{1, 10, 1}, {2, 11, 2}, {3, 12, 3}};
  o.expect("walk (skip)", check_walk(want, want, {3, 3}).empty(),
           !check_walk(want, {{1, 10, 1}, {3, 12, 3}}, {3}).empty());
  o.expect("walk (repeat)", true,
           !check_walk(want, {{1, 10, 1}, {2, 11, 2}, {2, 11, 2}}, {3}).empty());
  o.expect("walk (order)", true,
           !check_walk(want, {{2, 11, 2}, {1, 10, 1}, {3, 12, 3}}, {3}).empty());
  o.expect("walk (total)", true, !check_walk(want, want, {3, 4}).empty());

  o.expect("304 with stale ETag", check_conditional("\"v1\"", "\"v1\"", 304).empty(),
           !check_conditional("\"v0\"", "\"v1\"", 304).empty());
  o.expect("200 with matching ETag",
           check_conditional("\"v0\"", "\"v1\"", 200).empty(),
           !check_conditional("\"v1\"", "\"v1\"", 200).empty());

  o.expect("pipeline audit", check_no_violations(0, "").empty(),
           !check_no_violations(1, "simplify/blackhole-legs").empty());

  leishen::store::incident_filter by_b;
  by_b.attacker = "B";
  leishen::store::incident_filter by_sbs;
  by_sbs.pattern = attack_pattern::sbs;
  o.expect("brute-force filter",
           brute_force_match(right[1], by_b) &&
               brute_force_match(right[1], by_sbs),
           !brute_force_match(right[0], by_b) &&
               !brute_force_match(right[0], by_sbs));

  std::printf("%s: %d check(s) without teeth\n",
              o.failures == 0 ? "ok" : "FAIL", o.failures);
  return o.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
