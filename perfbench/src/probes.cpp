#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "api/http.h"
#include "common.h"
#include "core/account_tagging.h"
#include "core/flashloan_id.h"
#include "core/patterns.h"
#include "core/simplify.h"
#include "core/trade_actions.h"
#include "corpus/corpus_writer.h"
#include "fleet/shard_coordinator.h"
#include "replay/replayer.h"
#include "service/checkpoint.h"
#include "service/metrics.h"
#include "store/wal.h"

namespace perfbench {

namespace lc = leishen::core;
namespace ls = leishen::store;
namespace lsv = leishen::service;
using leishen::chain::tx_receipt;

namespace {

double ns_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::nano>(clock_type::now() - t0)
      .count();
}

}  // namespace

std::vector<lsv::monitor_incident> dump_store(const ls::incident_store& store) {
  std::vector<lsv::monitor_incident> out;
  std::optional<ls::incident_key> cursor;
  while (true) {
    const ls::incident_page page = store.query({}, cursor, 500);
    for (const ls::stored_incident& s : page.items) out.push_back(s.incident);
    if (!page.has_more) break;
    cursor = page.next;
  }
  return out;
}

// ---- core ---------------------------------------------------------------------------

metric_map probe_core(const substrate& sub,
                      const std::vector<tx_receipt>& receipts) {
  span root{"core.probe"};
  metric_map m;
  // Prefilter: the signature-only check on every receipt.
  std::vector<const tx_receipt*> accepted;
  std::vector<double> pass_ns;
  for (int pass = 0; pass < 5; ++pass) {
    std::size_t hits = 0;
    const auto t0 = clock_type::now();
    for (const tx_receipt& r : receipts) hits += lc::may_be_flash_loan(r);
    pass_ns.push_back(ns_since(t0) / static_cast<double>(receipts.size()));
    if (pass == 0) {
      for (const tx_receipt& r : receipts) {
        if (lc::may_be_flash_loan(r)) accepted.push_back(&r);
      }
    }
    (void)hits;
  }
  m["core.prefilter_ns_per_tx"] = median(pass_ns);

  // Flash-loan identification on the accepts gives the precision and the
  // sample the remaining stages are timed on.
  std::vector<const tx_receipt*> flash;
  lc::flashloan_info info;
  for (const tx_receipt* r : accepted) {
    lc::identify_flash_loan_into(*r, info);
    if (info.is_flash_loan) flash.push_back(r);
  }
  m["core.prefilter_accepts"] = static_cast<double>(accepted.size());
  m["core.prefilter_precision"] =
      accepted.empty() ? 0.0
                       : static_cast<double>(flash.size()) /
                             static_cast<double>(accepted.size());
  m["core.flash_loans_timed"] = static_cast<double>(flash.size());

  // The six Fig. 5 stages, each timed per call, on warm buffers and a warm
  // tagging memo (the first pass is the warm-up).
  lc::shared_tag_cache shared;
  const lc::account_tagger tagger{*sub.creations, *sub.labels, &shared};
  leishen::chain::transfer_list transfers;
  lc::app_transfer_list tagged, simplified, scratch;
  lc::trade_list trades;
  std::vector<lc::pattern_match> matches;
  const lc::simplify_params base_sp;
  const int passes = flash.empty()
                         ? 0
                         : std::clamp<int>(static_cast<int>(
                                               20000 / flash.size()),
                                           3, 50);
  std::vector<double> st[6];
  std::uint64_t lookups = 0;  // tagging lookups of the cold first pass
  for (int pass = 0; pass < passes; ++pass) {
    double acc[6] = {0, 0, 0, 0, 0, 0};
    for (const tx_receipt* r : flash) {
      auto t = clock_type::now();
      lc::identify_flash_loan_into(*r, info);
      acc[0] += ns_since(t);
      t = clock_type::now();
      leishen::replay::extract_transfers_into(*r, transfers);
      acc[1] += ns_since(t);
      t = clock_type::now();
      const leishen::tag_id borrower = tagger.tag_of(info.borrower);
      tagger.lift_into(transfers, tagged);
      acc[2] += ns_since(t);
      if (pass == 0) lookups += 1 + 2 * transfers.size();
      lc::simplify_params sp = base_sp;
      sp.protected_tag = borrower;
      t = clock_type::now();
      lc::simplify_into(tagged, sub.weth, sp, simplified, scratch);
      acc[3] += ns_since(t);
      t = clock_type::now();
      lc::identify_trades_into(simplified, trades);
      acc[4] += ns_since(t);
      t = clock_type::now();
      lc::match_patterns_into(trades, borrower, sub.scan.params, matches);
      acc[5] += ns_since(t);
    }
    if (pass == 0) continue;
    for (int s = 0; s < 6; ++s) {
      st[s].push_back(acc[s] / static_cast<double>(flash.size()));
    }
  }
  const char* names[6] = {"core.identify_ns", "core.extract_ns",
                          "core.tag_ns",      "core.simplify_ns",
                          "core.trades_ns",   "core.match_ns"};
  for (int s = 0; s < 6; ++s) m[names[s]] = median(st[s]);
  // Memo hit ratio over one cold pass: every lookup (the borrower plus
  // both ends of each transfer) that did not need a creation-tree walk.
  m["core.tag_cache_hit_ratio"] =
      lookups > 0 ? 1.0 - static_cast<double>(shared.misses()) /
                              static_cast<double>(lookups)
                  : 0.0;

  // The serial batch scanner over the same receipts.
  std::vector<double> bps;
  std::uint64_t blocks = 0;
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    if (i == 0 || receipts[i].block_number != receipts[i - 1].block_number) {
      ++blocks;
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    lc::scanner s{*sub.creations, *sub.labels, sub.weth, sub.scan};
    const auto t0 = clock_type::now();
    s.scan_all(receipts, nullptr);
    bps.push_back(static_cast<double>(blocks) /
                  seconds_between(t0, clock_type::now()));
  }
  m["core.serial_scan_blocks_per_s"] = median(bps);
  return m;
}

// ---- corpus -----------------------------------------------------------------------------

metric_map probe_corpus(const leishen::corpus::corpus_reader& reader,
                        double open_seconds) {
  span root{"corpus.probe"};
  metric_map m;
  m["corpus.open_s"] = open_seconds;
  const std::uint64_t n_tx = std::min<std::uint64_t>(reader.tx_count(), 200000);
  tx_receipt rec;
  std::vector<double> full, header;
  for (int pass = 0; pass < 3; ++pass) {
    for (const bool payload : {true, false}) {
      std::uint64_t b = 0;
      const auto t0 = clock_type::now();
      for (std::uint64_t t = 0; t < n_tx; ++t) {
        while (b + 1 < reader.block_count() &&
               reader.block(b + 1).first_tx <= t) {
          ++b;
        }
        reader.materialize_tx(t, reader.block(b).number, rec, payload);
      }
      (payload ? full : header).push_back(ns_since(t0) /
                                          static_cast<double>(n_tx));
    }
  }
  m["corpus.decode_ns_per_tx"] = median(full);
  m["corpus.decode_header_ns_per_tx"] = median(header);
  std::vector<double> pre;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t hits = 0;
    const auto t0 = clock_type::now();
    for (std::uint64_t t = 0; t < reader.tx_count(); ++t) {
      hits += reader.tx_may_be_flash_loan(t);
    }
    pre.push_back(ns_since(t0) / static_cast<double>(reader.tx_count()));
    if (hits > reader.tx_count()) pre.back() = 0.0;  // keeps `hits` live
  }
  m["corpus.prefilter_ns_per_tx"] = median(pre);
  return m;
}

metric_map probe_corpus_from(const std::vector<tx_receipt>& receipts,
                             const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/probe.lsc";
  {
    leishen::corpus::corpus_writer w{path};
    for (const tx_receipt& r : receipts) w.append(r);
    w.finish();
  }
  const auto t0 = clock_type::now();
  const leishen::corpus::corpus_reader reader{path};
  const double open_s = seconds_between(t0, clock_type::now());
  metric_map m = probe_corpus(reader, open_s);
  remove_tree(dir);
  return m;
}

// ---- store ------------------------------------------------------------------------------

std::vector<std::pair<std::string, ls::incident_filter>> filter_classes(
    const ls::incident_store& store) {
  std::vector<std::pair<std::string, ls::incident_filter>> out;
  out.emplace_back("all", ls::incident_filter{});
  const ls::incident_page first = store.query({}, std::nullopt, 1);
  if (first.items.empty()) return out;
  const lc::incident& inc = first.items.front().incident.incident;
  ls::incident_filter f;
  f.attacker = inc.borrower_tag.str();
  out.emplace_back("attacker", f);
  if (!inc.matches.empty()) {
    f = {};
    f.app = inc.matches.front().counterparty.str();
    out.emplace_back("app", f);
    f = {};
    f.token = inc.matches.front().target.contract_address();
    out.emplace_back("token", f);
    f = {};
    f.pattern = inc.matches.front().pattern;
    out.emplace_back("pattern", f);
  }
  const ls::store_stats s = store.stats();
  f = {};
  const std::uint64_t span_blocks = s.last_block - s.first_block;
  f.from_block = s.first_block + span_blocks / 2;
  f.to_block = f.from_block + std::max<std::uint64_t>(1, span_blocks / 10);
  out.emplace_back("window", f);
  return out;
}

metric_map probe_store(const std::vector<lsv::monitor_incident>& incidents,
                       const std::string& dir) {
  span root{"store.probe"};
  metric_map m;
  if (incidents.empty()) return m;
  std::filesystem::create_directories(dir);
  const auto per_op_us = [](auto&& fn, std::size_t n) {
    const auto t0 = clock_type::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return seconds_between(t0, clock_type::now()) * 1e6 /
           static_cast<double>(n);
  };
  // Without the WAL: pure index maintenance.
  {
    std::vector<double> v;
    for (int rep = 0; rep < 3; ++rep) {
      ls::incident_store s;
      const std::size_t n = std::min<std::size_t>(incidents.size(), 20000);
      v.push_back(per_op_us([&](std::size_t i) { s.insert(incidents[i]); }, n));
    }
    m["store.insert_nowal_us"] = median(v);
  }
  // With an fsync-per-record WAL: the durable insert path.
  const std::size_t n_wal = std::min<std::size_t>(incidents.size(), 600);
  const std::string wal_dir = dir + "/wal";
  {
    ls::wal_options wo;
    wo.dir = wal_dir;
    wo.fsync_every_n = 1;
    ls::wal_writer wal{wo};
    ls::incident_store s;
    s.attach_wal(&wal);
    m["store.insert_us"] =
        per_op_us([&](std::size_t i) { s.insert(incidents[i]); }, n_wal);
    s.attach_wal(nullptr);
    m["store.wal_records_per_fsync"] =
        wal.fsyncs() > 0 ? static_cast<double>(wal.appended()) /
                               static_cast<double>(wal.fsyncs())
                         : 0.0;
  }
  m["store.wal_bytes_per_incident"] =
      static_cast<double>(tree_bytes(wal_dir)) / static_cast<double>(n_wal);
  {
    ls::wal_options wo;
    wo.dir = dir + "/wal-raw";
    wo.fsync_every_n = 1;
    ls::wal_writer wal{wo};
    m["store.wal_append_us"] = per_op_us(
        [&](std::size_t i) { wal.append(incidents[i], false); }, n_wal);
  }
  {
    std::vector<double> v;
    for (int rep = 0; rep < 3; ++rep) {
      ls::incident_store s;
      const auto t0 = clock_type::now();
      const ls::wal_recovery r = ls::recover_wal(wal_dir, s);
      v.push_back(static_cast<double>(r.frames) /
                  seconds_between(t0, clock_type::now()));
    }
    m["store.recover_records_per_s"] = median(v);
  }
  // Direct queries per filter class over the whole incident set.
  {
    ls::incident_store s;
    s.insert_batch(incidents);
    for (const auto& [name, filter] : filter_classes(s)) {
      std::vector<double> v;
      for (int rep = 0; rep < 200; ++rep) {
        const auto t0 = clock_type::now();
        const ls::incident_page p = s.query(filter, std::nullopt, 50);
        v.push_back(seconds_between(t0, clock_type::now()) * 1e6);
        if (p.total > incidents.size()) v.back() = 0.0;
      }
      m["store.query_us." + name] = median(v);
    }
    std::vector<double> v;
    const std::uint64_t n = s.stats().ingested;
    for (std::uint64_t rep = 0; rep < 200; ++rep) {
      const std::uint64_t id = 1 + (rep * 7919) % n;
      const auto t0 = clock_type::now();
      const auto got = s.get(id);
      v.push_back(seconds_between(t0, clock_type::now()) * 1e6);
      if (!got) v.back() = 0.0;
    }
    m["store.query_us.id"] = median(v);
  }
  // The checkpoint writer's atomic save (temp file, fsync, rename).
  {
    const std::string payload(2048, 'x');
    std::vector<double> v;
    for (int rep = 0; rep < 40; ++rep) {
      const auto t0 = clock_type::now();
      lsv::save_checksummed_file(dir + "/probe.ckpt", payload);
      v.push_back(seconds_between(t0, clock_type::now()) * 1e6);
    }
    m["service.checkpoint_save_us"] = median(v);
  }
  remove_tree(dir);
  return m;
}

// ---- api --------------------------------------------------------------------------------

metric_map probe_api(const ls::incident_store& store) {
  span root{"api.probe"};
  metric_map m;
  // Distinct targets, each answered once per fresh server: every handle()
  // call is a cache miss that routes to the store.
  std::vector<std::string> targets;
  for (const auto& [name, f] : filter_classes(store)) {
    std::string t = "/incidents?limit=50";
    if (f.attacker) t += "&attacker=" + *f.attacker;
    if (f.app) t += "&app=" + *f.app;
    if (f.token) t += "&token=" + f.token->to_hex();
    if (f.pattern) t += std::string{"&pattern="} + lc::to_string(*f.pattern);
    if (f.from_block != 0) t += "&from=" + std::to_string(f.from_block);
    if (f.to_block != UINT64_MAX) t += "&to=" + std::to_string(f.to_block);
    targets.push_back(t);
  }
  const std::uint64_t n = store.stats().ingested;
  for (std::uint64_t k = 0; k < 100 && n > 0; ++k) {
    targets.push_back("/incidents/" + std::to_string(1 + (k * 7919) % n));
  }
  targets.push_back("/stats");
  std::vector<leishen::api::http_request> reqs;
  std::vector<std::string> heads;
  for (const std::string& t : targets) {
    heads.push_back("GET " + t +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: */*\r\n");
    leishen::api::http_request r;
    leishen::api::parse_request_head(heads.back(), {}, r);
    reqs.push_back(std::move(r));
  }
  std::vector<double> handle;
  for (int pass = 0; pass < 3; ++pass) {
    lsv::metrics_registry reg;
    leishen::api::server_config cfg;
    cfg.rate.enabled = false;
    cfg.cache_entries = targets.size() + 1;
    leishen::api::http_server server{store, reg, cfg};
    for (const auto& r : reqs) {
      const auto t0 = clock_type::now();
      const leishen::api::http_response resp = server.handle(r, "probe");
      handle.push_back(seconds_between(t0, clock_type::now()) * 1e6);
      if (resp.status != 200) handle.back() = 0.0;
    }
  }
  m["api.handle_us"] = median(handle);
  std::vector<double> parse;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = clock_type::now();
    std::size_t ok = 0;
    for (int rep = 0; rep < 50; ++rep) {
      for (const std::string& h : heads) {
        leishen::api::http_request r;
        ok += leishen::api::parse_request_head(h, {}, r) ==
              leishen::api::parse_result::ok;
      }
    }
    parse.push_back(ns_since(t0) / static_cast<double>(50 * heads.size()));
    if (ok == 0) parse.back() = 0.0;
  }
  m["api.parse_ns"] = median(parse);
  return m;
}

// ---- fleet ------------------------------------------------------------------------------

metric_map probe_fleet(const substrate& sub, const std::vector<tx_receipt>& receipts,
                       const std::string& dir) {
  span root{"fleet.probe"};
  metric_map m;
  std::vector<double> serial, fleet;
  for (int rep = 0; rep < 3; ++rep) {
    lc::scanner s{*sub.creations, *sub.labels, sub.weth, sub.scan};
    auto t0 = clock_type::now();
    s.scan_all(receipts, nullptr);
    serial.push_back(seconds_between(t0, clock_type::now()));
    ls::incident_store store;
    leishen::fleet::fleet_options fo;
    fo.shards = 2;
    fo.scan = sub.scan;
    fo.checkpoint_every = 8;
    fo.state_dir = dir + "/rep-" + std::to_string(rep);
    fo.wal = true;
    leishen::fleet::shard_coordinator fc{*sub.creations, *sub.labels,
                                         sub.weth, receipts, store, fo};
    t0 = clock_type::now();
    fc.run();
    fleet.push_back(seconds_between(t0, clock_type::now()));
  }
  m["fleet.gap_ratio"] = median(fleet) / median(serial);
  remove_tree(dir);
  return m;
}

// ---- the declared list ------------------------------------------------------------------

const std::vector<layer_metric>& layer_metrics() {
  static const std::vector<layer_metric> all = {
      {"corpus.open_s", "s"},
      {"corpus.decode_ns_per_tx", "ns"},
      {"corpus.decode_header_ns_per_tx", "ns"},
      {"corpus.prefilter_ns_per_tx", "ns"},
      {"core.prefilter_ns_per_tx", "ns"},
      {"core.prefilter_precision", "ratio"},
      {"core.prefilter_accepts", "count"},
      {"core.identify_ns", "ns"},
      {"core.extract_ns", "ns"},
      {"core.tag_ns", "ns"},
      {"core.simplify_ns", "ns"},
      {"core.trades_ns", "ns"},
      {"core.match_ns", "ns"},
      {"core.flash_loans_timed", "count"},
      {"core.tag_cache_hit_ratio", "ratio"},
      {"core.serial_scan_blocks_per_s", "blocks/s"},
      {"fleet.gap_ratio", "ratio"},
      {"ledger.residual_share", "ratio"},
      {"service.source_lag_p50_ms", "ms"},
      {"service.source_lag_p99_ms", "ms"},
      {"service.source_lag_samples", "count"},
      {"service.queue_high_water", "blocks"},
      {"service.detect_ms", "ms"},
      {"service.checkpoint_writes", "count"},
      {"service.checkpoint_bytes", "bytes"},
      {"service.checkpoint_save_us", "us"},
      {"service.feed_bytes", "bytes"},
      {"service.wal_fsyncs", "count"},
      {"service.checkpoint_fsyncs", "count"},
      {"service.feed_fsyncs", "count"},
      {"store.insert_us", "us"},
      {"store.insert_nowal_us", "us"},
      {"store.wal_append_us", "us"},
      {"store.wal_records_per_fsync", "ratio"},
      {"store.wal_bytes_per_incident", "bytes"},
      {"store.recover_records_per_s", "records/s"},
      {"store.query_us.all", "us"},
      {"store.query_us.attacker", "us"},
      {"store.query_us.app", "us"},
      {"store.query_us.token", "us"},
      {"store.query_us.pattern", "us"},
      {"store.query_us.window", "us"},
      {"store.query_us.id", "us"},
      {"api.cache_hit_ratio", "ratio"},
      {"api.cache_lookups", "count"},
      {"api.not_modified_ratio", "ratio"},
      {"api.handle_us", "us"},
      {"api.parse_ns", "ns"},
      {"api.transport_us", "us"},
      {"trace.corpus.self_s", "s"},
      {"trace.core.self_s", "s"},
      {"trace.service.self_s", "s"},
      {"trace.fleet.self_s", "s"},
      {"trace.store.self_s", "s"},
      {"trace.api.self_s", "s"},
  };
  return all;
}

void emit_layer_metrics(run_result& res, const metric_map& m) {
  for (const layer_metric& lm : layer_metrics()) {
    const auto it = m.find(lm.name);
    if (it == m.end()) {
      res.fail(std::string{"per-layer metric not produced: "} + lm.name);
      continue;
    }
    res.metric(lm.name, it->second, lm.unit);
  }
}

}  // namespace perfbench
