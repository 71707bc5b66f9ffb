// backfill: a seeded ~1M-block corpus scanned by a shard_coordinator in the
// deployed `chain_monitor --backfill --state-dir --wal --serve` shape —
// per-segment checkpoints and feeds, the fsync-per-record WAL, and the API
// served over the fleet's store while one client watches the incidents
// appear. Each round is one full backfill plus one restart
// (`shard_coordinator::resume` on the round's state directory).
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "api/http_server.h"
#include "checks.h"
#include "common.h"
#include "corpus/corpus_generator.h"
#include "corpus/corpus_reader.h"
#include "corpus/corpus_scan.h"
#include "fleet/shard_coordinator.h"
#include "probes.h"
#include "stream.h"
#include "verify/pipeline_auditor.h"
#include "workloads.h"

namespace perfbench {

namespace lc = leishen::core;
namespace lcorp = leishen::corpus;
namespace lf = leishen::fleet;
namespace ls = leishen::store;
namespace lsv = leishen::service;

namespace {

constexpr std::uint64_t kBlocks = 1'000'000;
constexpr unsigned kShards = 2;
constexpr std::uint64_t kFleetCheckpointEvery = 256;  // chain_monitor --backfill
constexpr int kReaderPauseUs = 1000;
constexpr const char* kReaderKey = "perfbench-reader";
constexpr std::uint64_t kAuditSample = 400;
constexpr std::uint64_t kServiceProbeBlocks = 1000;
constexpr int kResumesPerRound = 3;

struct round_stats {
  double fleet_s = 0.0;
  std::vector<double> recovery_s;
  std::vector<double> visible_ms;
  std::vector<double> query_us;
  double reader_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t api_requests = 0, api_hits = 0, api_misses = 0;
  std::uint64_t not_modified = 0;
};

/// Watches the fleet's store through the API: one keyset cursor per
/// planned shard range (a shard inserts its range in block order), polled
/// with If-None-Match every `kReaderPauseUs` until `expected` incidents
/// were seen or `stop` is set and a final sweep found nothing new.
void watch(std::uint16_t port,
           const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges,
           std::size_t expected, clock_type::time_point t0,
           const std::atomic<bool>& stop, round_stats& rs,
           std::vector<std::string>& problems) {
  http_client client{port, kReaderKey};
  if (!client.ok()) {
    problems.push_back("reader cannot connect");
    return;
  }
  struct cursor_state {
    std::string cursor, etag, target;
  };
  std::vector<cursor_state> cur(ranges.size());
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  const auto start = clock_type::now();
  bool final_sweep = false;
  while (seen.size() < expected) {
    bool progressed = false;
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      std::string target = "/incidents?from=" +
                           std::to_string(ranges[s].first) +
                           "&to=" + std::to_string(ranges[s].second) +
                           "&limit=500";
      if (!cur[s].cursor.empty()) target += "&page=" + cur[s].cursor;
      const std::string inm = target == cur[s].target ? cur[s].etag : "";
      span sp{"api.get"};
      const auto q0 = clock_type::now();
      const http_reply r = client.get(target, inm);
      const auto q1 = clock_type::now();
      rs.query_us.push_back(seconds_between(q0, q1) * 1e6);
      ++rs.queries;
      if (r.status == 304) {
        ++rs.not_modified;
        continue;
      }
      if (r.status != 200) {
        problems.push_back("reader GET answered " + std::to_string(r.status));
        return;
      }
      cur[s].target = target;
      cur[s].etag = r.etag;
      const parsed_page page = parse_page(r.body);
      if (!page.ok) {
        problems.push_back("reader could not parse an /incidents page");
        return;
      }
      for (const page_item& it : page.items) {
        if (seen.insert({it.block, it.tx}).second) {
          rs.visible_ms.push_back(seconds_between(t0, q1) * 1e3);
        }
        progressed = true;
      }
      if (!page.items.empty()) {
        const page_item& last = page.items.back();
        cur[s].cursor = std::to_string(last.block) + "-" +
                        std::to_string(last.tx) + "-" +
                        std::to_string(last.id);
      }
    }
    if (stop.load(std::memory_order_acquire) && !progressed) {
      if (final_sweep) break;
      final_sweep = true;
      continue;
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(kReaderPauseUs));
    }
  }
  rs.reader_s = seconds_between(start, clock_type::now());
  if (seen.size() != expected) {
    problems.push_back("reader saw " + std::to_string(seen.size()) +
                       " incidents over the API, expected " +
                       std::to_string(expected));
  }
}

}  // namespace

void run_backfill(const options& opt, run_result& res) {
  tracer tr;
  if (opt.trace) tracer::install(&tr);
  counting_fs_hook fs;

  // ---- set-up: corpus, reader, serial reference ----------------------------
  const std::string corpus_path = opt.work_dir + "/backfill.lsc";
  lcorp::corpus_build_options bopts;
  bopts.blocks = kBlocks;
  const lcorp::corpus_build_result built =
      lcorp::build_corpus(corpus_path, opt.seed, bopts);
  const auto open0 = clock_type::now();
  const lcorp::corpus_reader reader{corpus_path};
  const double open_s = seconds_between(open0, clock_type::now());
  const leishen::verify::synthetic_world& world = *built.world;
  lc::scanner_options scan_opts;  // prefilter on, as deployed

  lcorp::corpus_scan_result serial;
  double serial_s = 0.0;
  {
    span sp{"core.serial_scan"};
    lc::scanner s{world.creations, world.labels, world.weth_token, scan_opts};
    const auto t0 = clock_type::now();
    serial = lcorp::scan_corpus(reader, s, 0, reader.block_count());
    serial_s = seconds_between(t0, clock_type::now());
  }
  const std::uint64_t last_block =
      reader.block(reader.block_count() - 1).number;
  const std::vector<lf::corpus_shard_plan> plan =
      lf::plan_corpus_shards(reader, kShards);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (const lf::corpus_shard_plan& p : plan) {
    ranges.emplace_back(p.range.first_block, p.range.last_block);
  }
  const double setup_s = seconds_between(process_start, clock_type::now());
  std::fprintf(stderr,
               "backfill: %llu blocks, %llu txs, %zu incidents, serial scan "
               "%.3fs, setup %.2fs\n",
               static_cast<unsigned long long>(reader.block_count()),
               static_cast<unsigned long long>(reader.tx_count()),
               serial.incidents.size(), serial_s, setup_s);

  // ---- measured rounds --------------------------------------------------------
  std::vector<round_stats> rounds;
  std::unique_ptr<scoped_fs_hook> hook;
  if (opt.trace) hook = std::make_unique<scoped_fs_hook>(fs);
  std::unique_ptr<ls::incident_store> last_store;  // served by probe_api
  rss_sampler rss;
  const auto measure0 = clock_type::now();
  while (rounds.empty() ||
         seconds_between(measure0, clock_type::now()) < opt.seconds) {
    const std::string state_dir =
        opt.work_dir + "/round-" + std::to_string(rounds.size());
    round_stats rs;
    std::vector<std::string> problems;
    auto store = std::make_unique<ls::incident_store>();
    lf::fleet_options fo;
    fo.shards = kShards;
    fo.scan = scan_opts;
    fo.checkpoint_every = kFleetCheckpointEvery;
    fo.state_dir = state_dir;
    fo.wal = true;
    fo.wal_fsync_every_n = 1;
    {
      span round_span{"bench.backfill_round"};
      lsv::metrics_registry api_metrics;
      leishen::api::server_config sc;
      sc.endpoint.host = "127.0.0.1";
      sc.endpoint.port = 0;
      sc.workers = 1;
      sc.api_keys = {kReaderKey};
      sc.rate.refill_per_sec = 1e6;  // far above one polling reader
      sc.rate.burst = 1e6;
      leishen::api::http_server server{*store, api_metrics, sc};
      lf::shard_coordinator fleet{world.creations, world.labels,
                                  world.weth_token, reader, *store, fo};
      fleet.resume();  // fresh state dir: plans and arms a new run
      server.start();
      std::atomic<bool> done{false};
      const auto t0 = clock_type::now();
      std::thread reader_thread{[&] {
        watch(server.port(), ranges, serial.incidents.size(), t0, done, rs,
              problems);
      }};
      {
        span sp{"fleet.run"};
        try {
          fleet.run();
        } catch (const std::exception& e) {
          problems.push_back(std::string{"fleet failed: "} + e.what());
        }
      }
      rs.fleet_s = seconds_between(t0, clock_type::now());
      done.store(true, std::memory_order_release);
      reader_thread.join();
      server.stop();
      rs.api_requests = api_metrics.counter_value("api_requests_total");
      rs.api_hits = api_metrics.counter_value("api_cache_hits_total");
      rs.api_misses = api_metrics.counter_value("api_cache_misses_total");

      // ---- checks on the finished backfill ----
      const auto counters = fleet.merged_counters();
      const auto counter = [&](const char* name) -> std::uint64_t {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
      };
      res.check("prefilter", check_prefilter_accounting(
                                 counter("monitor_prefilter_accepts"),
                                 counter("monitor_prefilter_rejects"),
                                 reader.tx_count()));
      res.check("watermark",
                check_watermark(fleet.committed_watermark(), last_block));
    }
    const std::vector<lsv::monitor_incident> live = dump_store(*store);
    res.check("fleet vs serial", check_same_incidents(serial.incidents, live));

    // ---- restart: resume the fleet from the round's state directory ----
    {
      ls::incident_store recovered;
      lf::shard_coordinator again{world.creations, world.labels,
                                  world.weth_token, reader, recovered, fo};
      span sp{"fleet.resume"};
      const auto r0 = clock_type::now();
      const bool resumed = again.resume();
      rs.recovery_s.push_back(seconds_between(r0, clock_type::now()));
      if (!resumed) problems.push_back("resume found no fleet checkpoint");
      res.check("recovered vs live",
                check_same_incidents(live, dump_store(recovered)));
    }
    // Further restarts of the same state directory: resume only reads it.
    for (int k = 1; k < kResumesPerRound; ++k) {
      ls::incident_store recovered;
      lf::shard_coordinator again{world.creations, world.labels,
                                  world.weth_token, reader, recovered, fo};
      span sp{"fleet.resume"};
      const auto r0 = clock_type::now();
      again.resume();
      rs.recovery_s.push_back(seconds_between(r0, clock_type::now()));
    }
    res.check("backfill", problems);
    remove_tree(state_dir);
    last_store = std::move(store);
    rounds.push_back(std::move(rs));
    if (!res.correct) break;
  }
  const double measured_s = seconds_between(measure0, clock_type::now());
  const double rss_mb = rss.stop();
  hook.reset();

  // ---- audit a seeded sample of flash-loan transactions ----------------------
  {
    leishen::verify::pipeline_auditor auditor{world.creations, world.labels,
                                              world.weth_token};
    std::vector<std::uint64_t> candidates;
    for (std::uint64_t t = 0; t < reader.tx_count(); ++t) {
      if (reader.tx_may_be_flash_loan(t)) candidates.push_back(t);
    }
    std::uint64_t violations = 0;
    std::string first;
    leishen::chain::tx_receipt rec;
    std::uint64_t bi = 0;
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, candidates.size() / kAuditSample);
    for (std::uint64_t k = opt.seed % stride; k < candidates.size();
         k += stride) {
      const std::uint64_t t = candidates[k];
      while (bi + 1 < reader.block_count() &&
             reader.block(bi + 1).first_tx <= t) {
        ++bi;
      }
      reader.materialize_tx(t, reader.block(bi).number, rec);
      for (const auto& v : auditor.audit(rec)) {
        if (violations++ == 0) first = v.invariant + ": " + v.detail;
      }
    }
    res.check("audit", check_no_violations(violations, first));
  }

  // ---- metrics ------------------------------------------------------------------
  // Every figure is taken per round, then the median across rounds.
  std::vector<double> fleet_bps, recovery, visible, query, reader_qps;
  std::vector<std::vector<double>> visible_rounds;
  std::uint64_t queries = 0;
  for (const round_stats& rs : rounds) {
    fleet_bps.push_back(static_cast<double>(reader.block_count()) / rs.fleet_s);
    recovery.insert(recovery.end(), rs.recovery_s.begin(), rs.recovery_s.end());
    visible.insert(visible.end(), rs.visible_ms.begin(), rs.visible_ms.end());
    query.insert(query.end(), rs.query_us.begin(), rs.query_us.end());
    visible_rounds.push_back(rs.visible_ms);
    reader_qps.push_back(static_cast<double>(rs.queries) / rs.reader_s);
    queries += rs.queries;
  }
  res.attempted = rounds.size() * (reader.block_count() + 1) + queries;
  std::fprintf(stderr,
               "backfill: %zu rounds in %.1fs; visible samples %zu, query "
               "samples %zu\n",
               rounds.size(), measured_s, visible.size(), query.size());

  if (!opt.trace) {
    res.metric("setup_s", setup_s, "s");
    res.metric("blocks_per_s", median(fleet_bps), "blocks/s");
    res.metric("visible_p50_ms", median_of_groups(visible_rounds, 0.5), "ms");
    res.metric("queries_per_s", median(reader_qps), "queries/s");
    res.metric("recovery_s", median(recovery), "s");
    res.metric("rss_peak_mb", rss_mb, "MB");
    return;
  }

  // ---- traced run: per-layer metrics ----------------------------------------------
  metric_map m;
  const round_stats& r0 = rounds.front();
  const double n_rounds = static_cast<double>(rounds.size());
  m.merge(probe_corpus(reader, open_s));

  // A sample of the corpus, materialized: the first blocks until 2000
  // prefilter accepts are in (enough flash loans to time the stages).
  std::vector<leishen::chain::tx_receipt> sample;
  {
    std::uint64_t accepts = 0;
    for (std::uint64_t b = 0; b < reader.block_count() && accepts < 2000;
         ++b) {
      const auto& br = reader.block(b);
      for (std::uint64_t t = br.first_tx; t < br.first_tx + br.tx_count; ++t) {
        sample.emplace_back();
        reader.materialize_tx(t, br.number, sample.back());
        accepts += reader.tx_may_be_flash_loan(t) ? 1 : 0;
      }
    }
  }
  const substrate sub{&world.creations, &world.labels, world.weth_token,
                      scan_opts};
  metric_map core = probe_core(sub, sample);
  const double serial_bps =
      static_cast<double>(reader.block_count()) / serial_s;
  core["core.serial_scan_blocks_per_s"] = serial_bps;
  core["core.prefilter_precision"] =
      serial.stats.prefilter_accepts > 0
          ? static_cast<double>(serial.stats.flash_loans) /
                static_cast<double>(serial.stats.prefilter_accepts)
          : 0.0;
  core["core.prefilter_accepts"] =
      static_cast<double>(serial.stats.prefilter_accepts);
  m.merge(core);

  const double fleet_bps_med = median(fleet_bps);
  m["fleet.gap_ratio"] = serial_bps / fleet_bps_med;

  // Service layer: the fleet's monitors are inside the program, so their
  // source lag / detect time come from a paced stream over the sample's
  // first blocks.
  {
    std::vector<leishen::chain::tx_receipt> head;
    for (const auto& r : sample) {
      if (r.block_number >= sample.front().block_number + kServiceProbeBlocks) {
        break;
      }
      head.push_back(r);
    }
    stream_config sc;
    sc.sub = sub;
    sc.receipts = &head;
    sc.paced_epochs = 1;
    sc.reader = false;
    sc.dir = opt.work_dir + "/service-probe";
    const stream_report rep = run_stream(sc);
    metric_map svc = service_metrics(rep, nullptr);
    m["service.source_lag_p50_ms"] = svc["service.source_lag_p50_ms"];
    m["service.source_lag_p99_ms"] = svc["service.source_lag_p99_ms"];
    m["service.source_lag_samples"] = svc["service.source_lag_samples"];
    m["service.queue_high_water"] = svc["service.queue_high_water"];
    m["service.detect_ms"] = svc["service.detect_ms"];
    remove_tree(sc.dir);
  }
  using fc = counting_fs_hook;
  m["service.checkpoint_writes"] =
      static_cast<double>(fs.fsyncs(fc::checkpoint)) / n_rounds;
  m["service.checkpoint_bytes"] =
      static_cast<double>(fs.bytes(fc::checkpoint)) / n_rounds;
  m["service.feed_bytes"] = static_cast<double>(fs.bytes(fc::feed)) / n_rounds;
  m["service.wal_fsyncs"] = static_cast<double>(fs.fsyncs(fc::wal)) / n_rounds;
  m["service.checkpoint_fsyncs"] =
      static_cast<double>(fs.fsyncs(fc::checkpoint)) / n_rounds;
  m["service.feed_fsyncs"] = static_cast<double>(fs.fsyncs(fc::feed)) / n_rounds;

  metric_map st = probe_store(serial.incidents, opt.work_dir + "/store-probe");
  const double incidents_per_round =
      static_cast<double>(serial.incidents.size());
  st["store.wal_bytes_per_incident"] =
      static_cast<double>(fs.bytes(fc::wal)) / n_rounds / incidents_per_round;
  st["store.wal_records_per_fsync"] =
      fs.fsyncs(fc::wal) > 0
          ? incidents_per_round * n_rounds /
                static_cast<double>(fs.fsyncs(fc::wal))
          : 0.0;
  m.merge(st);
  m.merge(probe_api(*last_store));

  std::uint64_t req = 0, hits = 0, misses = 0, nm = 0;
  std::vector<double> q_all;
  for (const round_stats& rs : rounds) {
    req += rs.api_requests;
    hits += rs.api_hits;
    misses += rs.api_misses;
    nm += rs.not_modified;
  }
  m["api.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  m["api.cache_lookups"] = static_cast<double>(hits + misses);
  m["api.not_modified_ratio"] =
      req > 0 ? static_cast<double>(nm) / static_cast<double>(req) : 0.0;
  m["api.transport_us"] =
      std::max(0.0, percentile(query, 0.5) - m["api.handle_us"]);

  // Ledger: the fleet's shard-seconds split into the layers timed from
  // outside; what is left is fleet supervision, queue handoff and block
  // materialization inside the program (the residual).
  const double shard_seconds = static_cast<double>(kShards) * r0.fleet_s;
  const double layers_s =
      serial_s + incidents_per_round * m["store.insert_us"] * 1e-6 +
      m["service.checkpoint_writes"] * m["store.wal_append_us"] * 1e-6;
  m["ledger.residual_share"] = std::max(0.0, 1.0 - layers_s / shard_seconds);

  tracer::install(nullptr);
  const auto self = tr.self_seconds_by_layer();
  for (const char* layer : {"corpus", "core", "service", "fleet", "store",
                            "api"}) {
    const auto it = self.find(layer);
    m[std::string{"trace."} + layer + ".self_s"] =
        it == self.end() ? 0.0 : it->second / n_rounds;
  }
  std::map<std::string, double> summary = m;
  summary["e2e.blocks_per_s"] = fleet_bps_med;
  summary["e2e.visible_p50_ms"] = percentile(visible, 0.5);
  summary["e2e.query_p50_us"] = percentile(query, 0.5);
  summary["e2e.recovery_s"] = median(recovery);
  summary["e2e.setup_s"] = setup_s;
  summary["rounds"] = n_rounds;
  tr.write(opt.trace_dir + "/trace-backfill-" + std::to_string(opt.seed) +
               ".json",
           summary);
  emit_layer_metrics(res, m);
}

}  // namespace perfbench
