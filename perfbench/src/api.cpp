// api: the serving tier on its own. A store of tens of thousands of
// incidents is written to a WAL in set-up; each measured run restarts the
// API process's state from that WAL (recover_wal, server start, a client
// walking every page until the whole store is visible), then a closed loop
// of keep-alive clients, one thread each, runs a seeded query mix:
// pagination walks, attacker/app/token/pattern filters, block windows, id
// lookups, /stats and conditional revalidations. The mix has a hot set
// smaller than the server's response cache and a cold tail larger than
// it. Rate limiting stays on with one API key per client and a refill far
// above the offered rate. No writes happen.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "api/http_server.h"
#include "checks.h"
#include "common.h"
#include "common/rng.h"
#include "probes.h"
#include "store/wal.h"
#include "stream.h"
#include "verify/receipt_gen.h"
#include "workloads.h"

namespace perfbench {

namespace lc = leishen::core;
namespace ls = leishen::store;
namespace lsv = leishen::service;
using leishen::chain::tx_receipt;

namespace {

constexpr std::uint64_t kStoreSeed = 7;
constexpr std::size_t kBaseTxs = 2000;
constexpr std::size_t kStoreIncidents = 30000;
constexpr int kClients = 2;
constexpr unsigned kServerWorkers = 2;
constexpr std::size_t kCacheEntries = 256;  // the server default
constexpr std::size_t kHotTargets = 64;
constexpr std::size_t kColdTargets = 4096;
constexpr std::size_t kWalkLimit = 500;
constexpr int kOpsPerChunk = 200;
constexpr int kSegments = 8;

struct walk_spec {
  std::string query;  // filter part of the target, without limit/page
  std::vector<page_item> expected;
};

struct client_stats {
  std::vector<double> latency_us;
  std::uint64_t requests = 0;
  std::uint64_t not_modified = 0;
  std::uint64_t refused = 0;
  std::uint64_t walks = 0;
  std::vector<std::string> problems;
};

std::string filter_query(const ls::incident_filter& f) {
  std::string q;
  const auto add = [&](const std::string& kv) {
    q += (q.empty() ? "" : "&") + kv;
  };
  if (f.attacker) add("attacker=" + *f.attacker);
  if (f.app) add("app=" + *f.app);
  if (f.token) add("token=" + f.token->to_hex());
  if (f.pattern) add(std::string{"pattern="} + lc::to_string(*f.pattern));
  if (f.from_block != 0) add("from=" + std::to_string(f.from_block));
  if (f.to_block != UINT64_MAX) add("to=" + std::to_string(f.to_block));
  return q;
}

/// True when the tag renders safely into a query string unescaped.
bool plain(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(), [](unsigned char c) {
           return std::isalnum(c) || c == '-' || c == '_' || c == '.';
         });
}

}  // namespace

void run_api(const options& opt, run_result& res) {
  tracer tr;
  if (opt.trace) tracer::install(&tr);

  // ---- set-up: incidents, their WAL, the query mix -----------------------------
  leishen::verify::generator_options go;
  go.transactions = kBaseTxs;
  // The store's contents are fixed (their filter selectivities set the
  // cost of every query); the seed drives the query mix.
  const leishen::verify::generated_population pop =
      leishen::verify::generate_receipts(kStoreSeed, go);
  const substrate sub{&pop.world->creations, &pop.world->labels,
                      pop.world->weth_token, {}};
  incident_list base;
  {
    lc::scanner s{*sub.creations, *sub.labels, sub.weth, sub.scan};
    for (const tx_receipt& r : pop.receipts) {
      if (const lc::incident* inc = s.scan(r)) {
        base.push_back(lsv::monitor_incident{r.block_number, *inc, {}});
      }
    }
  }
  if (base.empty()) throw std::runtime_error("population produced no incidents");
  const std::uint64_t span_blocks = epoch_span_of(pop.receipts);
  // `loaded[i]` is the incident with store id i + 1 (ids follow WAL order).
  incident_list loaded;
  for (std::uint64_t e = 0; loaded.size() < kStoreIncidents; ++e) {
    for (lsv::monitor_incident inc : base) {
      if (loaded.size() == kStoreIncidents) break;
      inc.block_number += e * span_blocks;
      loaded.push_back(inc);
    }
  }
  const std::string wal_dir = opt.work_dir + "/wal";
  {
    ls::wal_options wo;
    wo.dir = wal_dir;
    wo.fsync_every_n = 0;
    ls::wal_writer wal{wo};
    for (const lsv::monitor_incident& inc : loaded) wal.append(inc, false);
    wal.flush();
  }
  std::set<std::uint64_t> blocks;
  for (const lsv::monitor_incident& inc : loaded) blocks.insert(inc.block_number);

  // Brute-force expectations, sorted into the store's (block, tx, id) order.
  std::vector<std::uint64_t> order(loaded.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    const auto ka = std::make_tuple(loaded[a].block_number,
                                    loaded[a].incident.tx_index, a);
    const auto kb = std::make_tuple(loaded[b].block_number,
                                    loaded[b].incident.tx_index, b);
    return ka < kb;
  });
  const auto expect = [&](const ls::incident_filter& f) {
    std::vector<page_item> out;
    for (const std::uint64_t i : order) {
      if (brute_force_match(loaded[i], f)) {
        out.push_back({i + 1, loaded[i].block_number,
                       loaded[i].incident.tx_index});
      }
    }
    return out;
  };

  const std::vector<page_item> all_expected = expect({});
  leishen::rng mix_rng{opt.seed * 0x9E3779B97F4A7C15ULL + 1};
  std::vector<ls::incident_filter> filters;
  {
    std::set<std::string> attackers, apps;
    std::set<leishen::address> tokens;
    for (const lsv::monitor_incident& inc : base) {
      if (plain(inc.incident.borrower_tag.str())) {
        attackers.insert(inc.incident.borrower_tag.str());
      }
      for (const lc::pattern_match& m : inc.incident.matches) {
        if (plain(m.counterparty.str())) apps.insert(m.counterparty.str());
        tokens.insert(m.target.contract_address());
      }
    }
    ls::incident_filter f;
    for (const std::string& a : attackers) {
      f = {};
      f.attacker = a;
      filters.push_back(f);
    }
    for (const std::string& a : apps) {
      f = {};
      f.app = a;
      filters.push_back(f);
    }
    for (const leishen::address& t : tokens) {
      f = {};
      f.token = t;
      filters.push_back(f);
    }
    for (int p = 0; p < 3; ++p) {
      f = {};
      f.pattern = static_cast<lc::attack_pattern>(p);
      filters.push_back(f);
    }
    const std::uint64_t lo = *blocks.begin(), hi = *blocks.rbegin();
    for (int w = 0; w < 4; ++w) {
      f = {};
      f.from_block = lo + (hi - lo) * static_cast<std::uint64_t>(w) / 4;
      f.to_block = f.from_block + (hi - lo) / 8;
      filters.push_back(f);
    }
  }
  // Walks follow the selective filters; the pattern filters, which match
  // a third of the store each, are served as first pages only.
  std::vector<walk_spec> walks;
  for (const ls::incident_filter& f : filters) {
    if (!f.pattern) walks.push_back({filter_query(f), expect(f)});
  }
  // Hot set: first pages of the filters, /stats, a few detail lookups.
  std::vector<std::string> hot;
  hot.push_back("/stats");
  hot.push_back("/incidents?limit=50");
  for (std::size_t i = 0; i < filters.size() && hot.size() < kHotTargets - 8;
       ++i) {
    hot.push_back("/incidents?limit=50&" + filter_query(filters[i]));
  }
  while (hot.size() < kHotTargets) {
    hot.push_back("/incidents/" +
                  std::to_string(1 + mix_rng.next_below(loaded.size())));
  }
  // Cold tail: id lookups and narrow block windows all over the store.
  std::vector<std::string> cold;
  {
    const std::uint64_t lo = *blocks.begin(), hi = *blocks.rbegin();
    while (cold.size() < kColdTargets) {
      if (mix_rng.next_bool(0.5)) {
        cold.push_back("/incidents/" +
                       std::to_string(1 + mix_rng.next_below(loaded.size())));
      } else {
        const std::uint64_t from = mix_rng.next_range(lo, hi);
        cold.push_back("/incidents?from=" + std::to_string(from) +
                       "&to=" + std::to_string(from + span_blocks / 4) +
                       "&limit=20");
      }
    }
  }
  const double setup_s = seconds_between(process_start, clock_type::now());
  std::fprintf(stderr,
               "api: %zu incidents over %zu blocks, %zu filters, hot %zu / "
               "cold %zu targets vs %zu cache entries, setup %.2fs\n",
               loaded.size(), blocks.size(), filters.size(), hot.size(),
               cold.size(), kCacheEntries, setup_s);

  // ---- measured: restarts, each followed by a serving segment ----------------------
  // Each segment restarts the API's state from the WAL (recover_wal,
  // server start, one client walking every page until the whole store is
  // visible), then runs the closed-loop query mix on the restarted server.
  // Interleaving spreads both figures over the whole run.
  rss_sampler rss;
  std::vector<double> recovery, restart_bps;
  std::vector<std::vector<double>> visible_groups;  // one per restart
  std::vector<double> segment_qps;
  leishen::api::server_config sc;
  sc.endpoint.host = "127.0.0.1";
  sc.endpoint.port = 0;
  sc.workers = kServerWorkers;
  sc.cache_entries = kCacheEntries;
  sc.rate.enabled = true;
  sc.rate.refill_per_sec = 1e6;  // far above the offered rate
  sc.rate.burst = 1e6;
  for (int c = 0; c < kClients; ++c) sc.api_keys.insert("client-" + std::to_string(c));
  sc.api_keys.insert("restart-walker");
  std::vector<client_stats> stats(kClients);
  std::vector<leishen::rng> rngs;
  for (int c = 0; c < kClients; ++c) {
    rngs.emplace_back(opt.seed * 1000003ULL + static_cast<std::uint64_t>(c));
  }
  std::uint64_t api_requests = 0, cache_hits = 0, cache_misses = 0;
  double served_s = 0.0;
  std::unique_ptr<ls::incident_store> store;
  const double segment_s = std::max(0.5, 0.8 * opt.seconds / kSegments);
  for (int r = 0; r < kSegments; ++r) {
    span sp{"bench.segment"};
    store = std::make_unique<ls::incident_store>();
    lsv::metrics_registry api_reg;
    const auto t0 = clock_type::now();
    {
      span s2{"store.recover"};
      const ls::wal_recovery rec = ls::recover_wal(wal_dir, *store);
      if (rec.inserts != loaded.size()) {
        res.fail("WAL recovery replayed " + std::to_string(rec.inserts) +
                 " inserts, expected " + std::to_string(loaded.size()));
      }
    }
    recovery.push_back(seconds_between(t0, clock_type::now()));
    leishen::api::http_server server{*store, api_reg, sc};
    server.start();
    {
      http_client walker{server.port(), "restart-walker"};
      std::string target = "/incidents?limit=500";
      std::vector<page_item> got;
      std::vector<std::uint64_t> totals;
      std::vector<double>& visible_ms = visible_groups.emplace_back();
      while (true) {
        span s3{"api.get"};
        const http_reply rep = walker.get(target);
        const parsed_page p = parse_page(rep.body);
        const double now_ms = seconds_between(t0, clock_type::now()) * 1e3;
        if (rep.status != 200 || !p.ok) {
          res.fail("restart walk answered " + std::to_string(rep.status));
          break;
        }
        for (const page_item& it : p.items) {
          got.push_back(it);
          visible_ms.push_back(now_ms);
        }
        totals.push_back(p.total);
        if (!p.has_more) break;
        target = "/incidents?limit=500&page=" + p.next;
      }
      restart_bps.push_back(static_cast<double>(blocks.size()) /
                            seconds_between(t0, clock_type::now()));
      res.check("restart walk", check_walk(all_expected, got, totals));
    }

    std::atomic<bool> stop{false};
    const std::uint16_t port = server.port();
    const auto serve0 = clock_type::now();
    std::vector<std::vector<timed_sample>> segment_timed(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
      client_stats& cs = stats[c];
      leishen::rng& rng = rngs[c];
      http_client client{port, "client-" + std::to_string(c)};
      if (!client.ok()) {
        cs.problems.push_back("client cannot connect");
        return;
      }
      std::map<std::string, std::string> etags;  // hot target -> its ETag
      const auto timed_get = [&](const std::string& target,
                                 const std::string& inm) {
        span sp{"api.get"};
        const auto t0 = clock_type::now();
        http_reply r = client.get(target, inm);
        cs.latency_us.push_back(seconds_between(t0, clock_type::now()) * 1e6);
        segment_timed[c].push_back(
            {seconds_between(serve0, t0), cs.latency_us.back()});
        ++cs.requests;
        if (r.status == 429 || r.status == 503) ++cs.refused;
        return r;
      };
      while (!stop.load(std::memory_order_acquire) && cs.problems.empty()) {
        for (int op = 0; op < kOpsPerChunk; ++op) {
          const double pick = rng.next_double();
          if (pick < 0.40) {
            const std::string& t = hot[rng.next_below(hot.size())];
            const http_reply r = timed_get(t, "");
            if (r.status != 200) {
              cs.problems.push_back(t + " answered " + std::to_string(r.status));
              break;
            }
            etags[t] = r.etag;
          } else if (pick < 0.80) {
            const std::string& t = cold[rng.next_below(cold.size())];
            const http_reply r = timed_get(t, "");
            if (r.status != 200) {
              cs.problems.push_back(t + " answered " + std::to_string(r.status));
              break;
            }
          } else if (pick < 0.97) {
            // Conditional revalidation of a hot target: mostly with its
            // current ETag, sometimes with a stale one.
            const std::string& t = hot[rng.next_below(hot.size())];
            const auto it = etags.find(t);
            if (it == etags.end()) continue;
            std::string sent = it->second;
            if (rng.next_bool(0.25) && sent.size() > 2) {
              sent[1] = sent[1] == 'x' ? 'y' : 'x';
            }
            const http_reply r = timed_get(t, sent);
            if (r.status == 304) ++cs.not_modified;
            for (const std::string& p :
                 check_conditional(sent, it->second, r.status)) {
              cs.problems.push_back(t + ": " + p);
            }
          } else {
            const walk_spec& w = walks[rng.next_below(walks.size())];
            std::vector<page_item> got;
            std::vector<std::uint64_t> totals;
            std::string t = "/incidents?limit=" + std::to_string(kWalkLimit) +
                            "&" + w.query;
            while (true) {
              const http_reply r = timed_get(t, "");
              const parsed_page p = parse_page(r.body);
              if (r.status != 200 || !p.ok) {
                cs.problems.push_back(t + " answered " +
                                      std::to_string(r.status));
                break;
              }
              got.insert(got.end(), p.items.begin(), p.items.end());
              totals.push_back(p.total);
              if (!p.has_more) break;
              t = "/incidents?limit=" + std::to_string(kWalkLimit) + "&" +
                  w.query + "&page=" + p.next;
            }
            ++cs.walks;
            for (const std::string& p : check_walk(w.expected, got, totals)) {
              cs.problems.push_back("walk " + w.query + ": " + p);
            }
          }
        }
      }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(segment_s));
    stop.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
    const double seg = seconds_between(serve0, clock_type::now());
    served_s += seg;
    std::vector<timed_sample> all;
    for (const auto& t : segment_timed) all.insert(all.end(), t.begin(), t.end());
    segment_qps.push_back(static_cast<double>(all.size()) / seg);
    api_requests += api_reg.counter_value("api_requests_total");
    cache_hits += api_reg.counter_value("api_cache_hits_total");
    cache_misses += api_reg.counter_value("api_cache_misses_total");
    server.stop();
  }
  const double rss_mb = rss.stop();

  std::vector<double> latency;
  std::uint64_t requests = 0, not_modified = 0, refused = 0, n_walks = 0;
  for (const client_stats& cs : stats) {
    latency.insert(latency.end(), cs.latency_us.begin(), cs.latency_us.end());
    requests += cs.requests;
    not_modified += cs.not_modified;
    refused += cs.refused;
    n_walks += cs.walks;
    res.check("query mix", cs.problems);
  }
  if (refused > 0) res.fail(std::to_string(refused) + " requests refused");
  res.attempted = requests + static_cast<std::uint64_t>(kSegments);
  std::fprintf(stderr,
               "api: %llu requests in %.2fs (%llu walks, %llu not modified), "
               "cache hits %llu / misses %llu\n",
               static_cast<unsigned long long>(requests), served_s,
               static_cast<unsigned long long>(n_walks),
               static_cast<unsigned long long>(not_modified),
               static_cast<unsigned long long>(cache_hits),
               static_cast<unsigned long long>(cache_misses));

  // Serving rate per segment, median across segments.
  const double qps = median(segment_qps);
  if (!opt.trace) {
    res.metric("setup_s", setup_s, "s");
    res.metric("blocks_per_s", median(restart_bps), "blocks/s");
    res.metric("visible_p50_ms", median_of_groups(visible_groups, 0.5), "ms");
    res.metric("queries_per_s", qps, "queries/s");
    res.metric("recovery_s", median(recovery), "s");
    res.metric("rss_peak_mb", rss_mb, "MB");
    return;
  }

  // ---- traced run: per-layer metrics -----------------------------------------------
  metric_map m;
  m.merge(probe_core(sub, pop.receipts));
  m.merge(probe_corpus_from(pop.receipts, opt.work_dir + "/corpus-probe"));
  m.merge(probe_fleet(sub, pop.receipts, opt.work_dir + "/fleet-probe"));
  {
    counting_fs_hook fs;
    stream_report rep;
    {
      scoped_fs_hook hook{fs};
      stream_config cfg;
      cfg.sub = sub;
      cfg.receipts = &pop.receipts;
      cfg.paced_epochs = 1;
      cfg.reader = false;
      cfg.dir = opt.work_dir + "/service-probe";
      rep = run_stream(cfg);
    }
    m.merge(service_metrics(rep, &fs));
  }
  m.merge(probe_store(loaded, opt.work_dir + "/store-probe"));
  m.merge(probe_api(*store));
  m["api.cache_hit_ratio"] =
      cache_hits + cache_misses > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0.0;
  m["api.cache_lookups"] = static_cast<double>(cache_hits + cache_misses);
  m["api.not_modified_ratio"] =
      api_requests > 0
          ? static_cast<double>(not_modified) / static_cast<double>(api_requests)
          : 0.0;
  const double client_p50 = percentile(latency, 0.5);
  m["api.transport_us"] = std::max(0.0, client_p50 - m["api.handle_us"]);
  m["ledger.residual_share"] =
      client_p50 > 0.0 ? std::max(0.0, 1.0 - m["api.handle_us"] / client_p50)
                       : 0.0;
  tracer::install(nullptr);
  const auto self = tr.self_seconds_by_layer();
  for (const char* layer : {"corpus", "core", "service", "fleet", "store",
                            "api"}) {
    const auto it = self.find(layer);
    m[std::string{"trace."} + layer + ".self_s"] =
        it == self.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> summary = m;
  summary["e2e.queries_per_s"] = qps;
  summary["e2e.query_p50_us"] = client_p50;
  summary["e2e.recovery_s"] = median(recovery);
  summary["e2e.setup_s"] = setup_s;
  tr.write(opt.trace_dir + "/trace-api-" + std::to_string(opt.seed) + ".json",
           summary);
  emit_layer_metrics(res, m);
}

}  // namespace perfbench
