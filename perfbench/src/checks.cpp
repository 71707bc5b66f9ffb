#include "checks.h"

#include <map>
#include <set>
#include <utility>

namespace perfbench {

namespace {
std::string key_text(std::uint64_t block, std::uint64_t tx) {
  return "(block " + std::to_string(block) + ", tx " + std::to_string(tx) +
         ")";
}
constexpr std::size_t kMaxReported = 5;
}  // namespace

std::vector<std::string> check_same_incidents(const incident_list& expected,
                                              const incident_list& got) {
  std::vector<std::string> out;
  if (expected.size() != got.size()) {
    out.push_back("expected " + std::to_string(expected.size()) +
                  " incidents, got " + std::to_string(got.size()));
  }
  const std::size_t n = std::min(expected.size(), got.size());
  for (std::size_t i = 0; i < n && out.size() < kMaxReported; ++i) {
    if (!(expected[i] == got[i])) {
      out.push_back("incident " + std::to_string(i) + " differs: expected " +
                    key_text(expected[i].block_number,
                             expected[i].incident.tx_index) +
                    ", got " +
                    key_text(got[i].block_number, got[i].incident.tx_index));
    }
  }
  return out;
}

std::vector<std::string> check_prefilter_accounting(std::uint64_t accepts,
                                                    std::uint64_t rejects,
                                                    std::uint64_t tx_count) {
  if (accepts + rejects == tx_count) return {};
  return {"prefilter accepts " + std::to_string(accepts) + " + rejects " +
          std::to_string(rejects) + " != " + std::to_string(tx_count) +
          " transactions"};
}

std::vector<std::string> check_watermark(std::uint64_t watermark,
                                         std::uint64_t last_block) {
  if (watermark >= last_block) return {};
  return {"committed watermark " + std::to_string(watermark) +
          " short of last block " + std::to_string(last_block)};
}

std::vector<std::string> check_known_attacks(
    const std::vector<expected_flag>& attacks,
    const std::vector<page_item>& visible) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const page_item& v : visible) seen.insert({v.block, v.tx});
  std::vector<std::string> out;
  for (const expected_flag& a : attacks) {
    const bool flagged = seen.count({a.block, a.tx}) > 0;
    if (flagged != a.flagged && out.size() < kMaxReported) {
      out.push_back(a.name + " at " + key_text(a.block, a.tx) +
                    (a.flagged ? " not flagged, Table IV expects a detection"
                               : " flagged, Table IV expects a miss"));
    }
  }
  return out;
}

std::vector<std::string> check_visible_after_due(
    const std::vector<visibility_sample>& samples) {
  std::vector<std::string> out;
  for (const visibility_sample& s : samples) {
    if (s.seen_s < s.due_s && out.size() < kMaxReported) {
      out.push_back("incident in block " + std::to_string(s.block) +
                    " visible " + std::to_string((s.due_s - s.seen_s) * 1e3) +
                    " ms before its block was due");
    }
  }
  return out;
}

bool brute_force_match(const leishen::service::monitor_incident& inc,
                       const leishen::store::incident_filter& f) {
  if (inc.block_number < f.from_block || inc.block_number > f.to_block) {
    return false;
  }
  const leishen::core::incident& i = inc.incident;
  if (f.attacker && i.borrower_tag.str() != *f.attacker) return false;
  const auto any_match = [&](auto pred) {
    for (const leishen::core::pattern_match& m : i.matches) {
      if (pred(m)) return true;
    }
    return false;
  };
  if (f.token && !any_match([&](const leishen::core::pattern_match& m) {
        return m.target.contract_address() == *f.token;
      })) {
    return false;
  }
  if (f.app && !any_match([&](const leishen::core::pattern_match& m) {
        return m.counterparty.str() == *f.app;
      })) {
    return false;
  }
  if (f.pattern && !any_match([&](const leishen::core::pattern_match& m) {
        return m.pattern == *f.pattern;
      })) {
    return false;
  }
  return true;
}

std::vector<std::string> check_walk(const std::vector<page_item>& expected,
                                    const std::vector<page_item>& got,
                                    const std::vector<std::uint64_t>& totals) {
  std::vector<std::string> out;
  std::set<std::uint64_t> ids;
  for (const page_item& g : got) {
    if (!ids.insert(g.id).second && out.size() < kMaxReported) {
      out.push_back("id " + std::to_string(g.id) + " listed twice");
    }
  }
  if (expected.size() != got.size()) {
    out.push_back("walk listed " + std::to_string(got.size()) +
                  " incidents, brute-force filter finds " +
                  std::to_string(expected.size()));
  }
  const std::size_t n = std::min(expected.size(), got.size());
  for (std::size_t i = 0; i < n && out.size() < kMaxReported; ++i) {
    if (!(expected[i] == got[i])) {
      out.push_back("walk position " + std::to_string(i) + ": expected id " +
                    std::to_string(expected[i].id) + ", got id " +
                    std::to_string(got[i].id));
    }
  }
  for (const std::uint64_t t : totals) {
    if (t != expected.size() && out.size() < kMaxReported) {
      out.push_back("page total " + std::to_string(t) + " != " +
                    std::to_string(expected.size()));
    }
  }
  return out;
}

std::vector<std::string> check_conditional(const std::string& sent_etag,
                                           const std::string& current_etag,
                                           int status) {
  const bool matches = !sent_etag.empty() && sent_etag == current_etag;
  if (status == 304 && !matches) {
    return {"304 answered If-None-Match " + sent_etag +
            " although the current ETag is " + current_etag};
  }
  if (status == 200 && matches) {
    return {"200 answered a matching If-None-Match " + sent_etag};
  }
  if (status != 200 && status != 304) {
    return {"conditional request answered " + std::to_string(status)};
  }
  return {};
}

std::vector<std::string> check_no_violations(std::uint64_t violations,
                                             const std::string& first_detail) {
  if (violations == 0) return {};
  return {std::to_string(violations) +
          " pipeline invariant violation(s), first: " + first_detail};
}

}  // namespace perfbench
