// Correctness checks the benchmark applies to the program's outputs. Each
// returns the problems it found (empty = pass), so a run can report every
// failed check and the self-test can feed each one a deliberately wrong
// result and see it rejected.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "service/incident_sink.h"
#include "store/incident_store.h"

namespace perfbench {

using incident_list = std::vector<leishen::service::monitor_incident>;

/// `got` must equal `expected` element for element (detections compare by
/// block and the full incident, latency stamps excluded).
[[nodiscard]] std::vector<std::string> check_same_incidents(
    const incident_list& expected, const incident_list& got);

/// Prefilter accounting: every corpus transaction is either accepted or
/// rejected by the prefilter, exactly once.
[[nodiscard]] std::vector<std::string> check_prefilter_accounting(
    std::uint64_t accepts, std::uint64_t rejects, std::uint64_t tx_count);

/// The committed watermark reached the last block of the input.
[[nodiscard]] std::vector<std::string> check_watermark(
    std::uint64_t watermark, std::uint64_t last_block);

/// One known attack as the live workload replays it in an epoch.
struct expected_flag {
  std::uint64_t block = 0;
  std::uint64_t tx = 0;
  bool flagged = false;  // paper Table IV: LeiShen detects it
  std::string name;
};

/// Each attack is flagged (present in `visible`) exactly when expected.
[[nodiscard]] std::vector<std::string> check_known_attacks(
    const std::vector<expected_flag>& attacks,
    const std::vector<page_item>& visible);

/// One incident first seen over the API: when its block was due and when
/// the response containing it arrived (seconds on one clock).
struct visibility_sample {
  std::uint64_t block = 0;
  double due_s = 0.0;
  double seen_s = 0.0;
};

/// No incident may be visible before its block was due.
[[nodiscard]] std::vector<std::string> check_visible_after_due(
    const std::vector<visibility_sample>& samples);

/// The benchmark's own filter predicate, written apart from the store's
/// indexes: token / app / pattern match when ANY match carries them.
[[nodiscard]] bool brute_force_match(
    const leishen::service::monitor_incident& inc,
    const leishen::store::incident_filter& f);

/// A keyset pagination walk: the concatenated pages must list exactly
/// `expected` (in order, no skip, no repeat), and every page's `total`
/// must equal the expected count.
[[nodiscard]] std::vector<std::string> check_walk(
    const std::vector<page_item>& expected, const std::vector<page_item>& got,
    const std::vector<std::uint64_t>& totals);

/// A 304 may only answer a request whose If-None-Match equals the ETag
/// the same request gets now; a request carrying any other tag must get a
/// full 200.
[[nodiscard]] std::vector<std::string> check_conditional(
    const std::string& sent_etag, const std::string& current_etag,
    int status);

/// Audit violations found on sampled flash-loan transactions.
[[nodiscard]] std::vector<std::string> check_no_violations(
    std::uint64_t violations, const std::string& first_detail);

}  // namespace perfbench
