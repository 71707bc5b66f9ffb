// live: the scenario universe's receipt log — the 22 known attacks, the
// seeded population of benign flash-loan activity and plain-transfer
// noise — replayed in consecutive epochs under fresh block numbers into
// one monitor_service feeding a WAL-backed store served over loopback.
// Rounds alternate a backlog drained unthrottled with a paced open-loop
// phase during which one client polls the API for the incidents to appear.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "api/http_server.h"
#include "checks.h"
#include "common.h"
#include "probes.h"
#include "scenarios/known_attacks.h"
#include "scenarios/population.h"
#include "service/block_source.h"
#include "service/monitor_service.h"
#include "store/store_sink.h"
#include "store/wal.h"
#include "stream.h"
#include "workloads.h"

namespace perfbench {

namespace lc = leishen::core;
namespace ls = leishen::store;
namespace lsv = leishen::service;
using leishen::chain::tx_receipt;

namespace {

constexpr const char* kReaderKey = "perfbench-reader";
/// The reader's pause after a poll that brought nothing new.
constexpr int kReaderPauseUs = 500;

/// Serves `base` in consecutive epochs under shifted block numbers, in
/// rounds: each round is `backlog` epochs that are due at once when
/// `release_backlog(round)` is called, then `paced` epochs due on an
/// open-loop schedule of one block every 1/rate seconds, which starts when
/// `begin_paced(round, at)` is called. `next()` sleeps until each block is
/// due.
class paced_source final : public lsv::block_source {
 public:
  paced_source(const std::vector<tx_receipt>& base, std::uint64_t rounds,
               std::uint64_t backlog, std::uint64_t paced, double rate)
      : base_{base}, backlog_{backlog}, per_round_{backlog + paced},
        rate_{rate}, paced_at_(rounds) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (i == 0 || base[i].block_number != base[i - 1].block_number) {
        starts_.push_back(i);
      }
    }
    starts_.push_back(base.size());
    first_ = base.front().block_number;
    span_ = base.back().block_number - first_ + 1;
    per_epoch_ = starts_.size() - 1;
    total_ = per_epoch_ * per_round_ * rounds;
    pulled_.resize(total_);
  }

  std::optional<lsv::block> next() override {
    if (cursor_ >= total_) return std::nullopt;
    const std::uint64_t i = cursor_++;
    const std::uint64_t round = i / (per_epoch_ * per_round_);
    if (is_paced(i)) {
      std::unique_lock lk{mu_};
      cv_.wait(lk, [&] { return paced_at_[round].has_value(); });
      lk.unlock();
      std::this_thread::sleep_until(due(i));
    } else {
      std::unique_lock lk{mu_};
      cv_.wait(lk, [&] { return released_ > round; });
    }
    const std::uint64_t epoch = i / per_epoch_;
    const std::size_t k = i % per_epoch_;
    lsv::block b;
    b.number = number_of(epoch, base_[starts_[k]].block_number);
    b.timestamp = base_[starts_[k]].timestamp;
    b.hash = lsv::block_link_hash(b.number);
    b.parent_hash = last_hash_;
    last_hash_ = b.hash;
    b.receipts.assign(base_.begin() + static_cast<std::ptrdiff_t>(starts_[k]),
                      base_.begin() +
                          static_cast<std::ptrdiff_t>(starts_[k + 1]));
    for (tx_receipt& r : b.receipts) r.block_number = b.number;
    pulled_[i] = clock_type::now();
    return b;
  }

  /// Let the backlog of rounds up to `round` flow.
  void release_backlog(std::uint64_t round) {
    {
      const std::lock_guard lk{mu_};
      released_ = round + 1;
    }
    cv_.notify_all();
  }

  void begin_paced(std::uint64_t round, clock_type::time_point at) {
    {
      const std::lock_guard lk{mu_};
      paced_at_[round] = at;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::uint64_t number_of(std::uint64_t epoch,
                                        std::uint64_t base_number) const {
    return base_number + epoch * span_;
  }
  /// Last block number of epoch `e`.
  [[nodiscard]] std::uint64_t last_of(std::uint64_t e) const {
    return number_of(e, base_.back().block_number);
  }
  /// Stream position of block `number` (inverse of number_of).
  [[nodiscard]] std::uint64_t index_of(std::uint64_t number) const {
    const std::uint64_t epoch = (number - first_) / span_;
    const std::uint64_t base_number = number - epoch * span_;
    std::size_t lo = 0, hi = per_epoch_;
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (base_[starts_[mid]].block_number <= base_number) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return epoch * per_epoch_ + lo;
  }
  [[nodiscard]] bool is_paced(std::uint64_t i) const {
    return (i / per_epoch_) % per_round_ >= backlog_;
  }
  /// When paced block `i` was due. Call only once its round has begun.
  [[nodiscard]] clock_type::time_point due(std::uint64_t i) const {
    const std::uint64_t round_blocks = per_epoch_ * per_round_;
    const std::uint64_t k = i % round_blocks - per_epoch_ * backlog_;
    return *paced_at_[i / round_blocks] +
           std::chrono::duration_cast<clock_type::duration>(
               std::chrono::duration<double>(static_cast<double>(k) / rate_));
  }

  [[nodiscard]] std::uint64_t per_epoch() const { return per_epoch_; }
  [[nodiscard]] std::uint64_t span() const { return span_; }
  [[nodiscard]] std::uint64_t first() const { return first_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Read only after the monitor's producer has been joined.
  [[nodiscard]] const std::vector<clock_type::time_point>& pulled() const {
    return pulled_;
  }

 private:
  const std::vector<tx_receipt>& base_;
  std::uint64_t backlog_, per_round_;
  double rate_;
  std::vector<std::size_t> starts_;
  std::uint64_t first_ = 0, span_ = 1, per_epoch_ = 0, total_ = 0,
                cursor_ = 0, last_hash_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  /// Written under mu_ before the paced blocks of the round are pulled or
  /// any of their incidents can be read back; read-only afterwards.
  std::vector<std::optional<clock_type::time_point>> paced_at_;
  std::uint64_t released_ = 0;  // rounds whose backlog may flow
  std::vector<clock_type::time_point> pulled_;
};

/// Every incident the API lists, by full keyset pagination.
std::vector<page_item> walk_api(std::uint16_t port,
                                std::vector<std::string>& problems) {
  std::vector<page_item> out;
  http_client c{port, kReaderKey};
  std::string target = "/incidents?limit=500";
  while (true) {
    const http_reply r = c.get(target);
    const parsed_page p = parse_page(r.body);
    if (r.status != 200 || !p.ok) {
      problems.push_back("API walk answered " + std::to_string(r.status));
      return out;
    }
    out.insert(out.end(), p.items.begin(), p.items.end());
    if (!p.has_more) return out;
    target = "/incidents?limit=500&page=" + p.next;
  }
}

}  // namespace

std::uint64_t epoch_span_of(const std::vector<tx_receipt>& base) {
  return base.back().block_number - base.front().block_number + 1;
}

stream_report run_stream(const stream_config& cfg) {
  stream_report rep;
  std::filesystem::create_directories(cfg.dir);
  const std::vector<tx_receipt>& base = *cfg.receipts;
  const std::uint64_t per_round = cfg.backlog_epochs + cfg.paced_epochs;
  paced_source src{base, cfg.rounds, cfg.backlog_epochs, cfg.paced_epochs,
                   kPacedBlocksPerS};
  rep.epoch_span = src.span();
  rep.first_block = src.first();
  rep.blocks_per_epoch = src.per_epoch();
  rep.wal_dir = cfg.dir + "/wal";
  rep.checkpoint_path = cfg.dir + "/monitor.ckpt";

  lsv::metrics_registry reg;
  lsv::monitor_options mo;
  mo.scan = cfg.sub.scan;
  mo.queue_capacity = kQueueCapacity;
  mo.checkpoint_every = kCheckpointEvery;
  mo.checkpoint_path = rep.checkpoint_path;

  ls::incident_store store;
  std::vector<clock_type::time_point> first_sink(src.total());
  std::vector<bool> has_sink(src.total(), false);
  {
    ls::wal_options wo;
    wo.dir = rep.wal_dir;
    wo.fsync_every_n = 1;
    ls::wal_writer wal{wo};
    store.attach_wal(&wal);
    lsv::monitor_service mon{*cfg.sub.creations, *cfg.sub.labels, cfg.sub.weth,
                             reg, mo};
    lsv::callback_sink stamp{[&](const lsv::monitor_incident& inc) {
      const std::uint64_t i = src.index_of(inc.block_number);
      if (!has_sink[i]) {
        has_sink[i] = true;
        first_sink[i] = clock_type::now();
      }
    }};
    ls::store_sink to_store{store};
    lsv::jsonl_sink feed{cfg.dir + "/feed.jsonl"};
    mon.add_sink(stamp);
    mon.add_sink(to_store);
    mon.add_sink(feed);

    lsv::metrics_registry api_reg;
    leishen::api::server_config sc;
    sc.endpoint.host = "127.0.0.1";
    sc.endpoint.port = 0;
    sc.api_keys = {kReaderKey};
    sc.rate.refill_per_sec = 1e6;  // far above one polling reader
    sc.rate.burst = 1e6;
    leishen::api::http_server server{store, api_reg, sc};
    server.start();

    const auto origin = clock_type::now();
    std::atomic<bool> done{false};
    // The round whose paced phase is running (-1 = none).
    std::atomic<std::int64_t> paced_round{-1};
    std::thread reader;
    if (cfg.reader) {
      // One keyset cursor follows the stream (one monitor inserts in block
      // order); incidents of paced blocks give visibility samples.
      reader = std::thread{[&] {
        span sp{"api.reader"};
        http_client c{server.port(), kReaderKey};
        std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
        std::string cursor, etag, last_target;
        std::int64_t round = -1;
        bool caught_up = true;  // every incident of `round` has been read
        while (true) {
          // The reader polls during the paced phases only (a backlog is
          // drained without reads beside it), asking for the incidents
          // from the first block of the round on, and finishes reading a
          // round before it moves to the next.
          const std::int64_t now_round =
              paced_round.load(std::memory_order_acquire);
          if (caught_up) {
            if (now_round > round) {
              round = now_round;
              cursor.clear();
              caught_up = false;
            } else if (done.load(std::memory_order_acquire)) {
              break;
            } else {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              continue;
            }
          }
          const bool round_over = now_round != round;
          std::string target =
              "/incidents?from=" +
              std::to_string(src.number_of(
                  static_cast<std::uint64_t>(round) * per_round,
                  base.front().block_number)) +
              "&limit=200";
          if (!cursor.empty()) target += "&page=" + cursor;
          const std::string inm = target == last_target ? etag : "";
          const auto q0 = clock_type::now();
          const http_reply r = c.get(target, inm);
          const auto q1 = clock_type::now();
          rep.queries.push_back(
              {seconds_between(origin, q0), seconds_between(q0, q1) * 1e6});
          bool progressed = false;
          if (r.status == 304) {
            ++rep.not_modified;
          } else if (r.status == 200) {
            last_target = target;
            etag = r.etag;
            const parsed_page p = parse_page(r.body);
            for (const page_item& it : p.items) {
              const std::uint64_t i = src.index_of(it.block);
              if (src.is_paced(i) && seen.insert({it.block, it.tx}).second) {
                rep.visible.push_back(
                    visibility_sample{it.block,
                                      seconds_between(origin, src.due(i)),
                                      seconds_between(origin, q1)});
              }
              progressed = true;
            }
            if (!p.items.empty()) {
              const page_item& l = p.items.back();
              cursor = std::to_string(l.block) + "-" + std::to_string(l.tx) +
                       "-" + std::to_string(l.id);
            }
          } else {
            rep.problems.push_back("reader GET answered " +
                                   std::to_string(r.status));
            break;
          }
          if (!progressed) {
            if (round_over) {
              caught_up = true;
            } else {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(kReaderPauseUs));
            }
          }
        }
      }};
    }

    // Per round: time each backlog epoch by watching the monitor's
    // watermark pass the epoch's last block, then open the round's paced
    // schedule and sample the queue depth until its last block is done.
    mon.start(src);
    const auto running = [&] {
      return mon.state() == leishen::service::run_state::running;
    };
    auto epoch_start = origin;
    for (std::uint64_t r = 0; r < cfg.rounds; ++r) {
      epoch_start = clock_type::now();
      src.release_backlog(r);
      {
        span sp{"service.backlog"};
        for (std::uint64_t j = 0; j < cfg.backlog_epochs; ++j) {
          const std::uint64_t last = src.last_of(r * per_round + j);
          while (mon.progress() < last && running()) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          const auto now = clock_type::now();
          rep.catchup_epoch_s.push_back(seconds_between(epoch_start, now));
          epoch_start = now;
        }
      }
      span sp{"service.paced"};
      const auto paced_at = clock_type::now() + std::chrono::milliseconds(1);
      src.begin_paced(r, paced_at);
      paced_round.store(static_cast<std::int64_t>(r), std::memory_order_release);
      const std::uint64_t last = src.last_of((r + 1) * per_round - 1);
      while (mon.progress() < last && running()) {
        rep.queue_high_water =
            std::max<std::uint64_t>(rep.queue_high_water, mon.queue().size());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      paced_round.store(-1, std::memory_order_release);
      const auto now = clock_type::now();
      rep.paced_seconds += seconds_between(paced_at, now);
      rep.paced_windows.push_back(
          {seconds_between(origin, paced_at), seconds_between(origin, now)});
      // Every block so far is processed and the next backlog is held back:
      // the monitor is idle while the hook runs.
      if (cfg.between_rounds) cfg.between_rounds(r);
    }
    mon.wait();
    done.store(true, std::memory_order_release);
    if (reader.joinable()) reader.join();
    rep.api_visible = walk_api(server.port(), rep.problems);
    server.stop();
    store.attach_wal(nullptr);

    rep.catchup_blocks = cfg.rounds * cfg.backlog_epochs * src.per_epoch();
    rep.paced_blocks = cfg.rounds * cfg.paced_epochs * src.per_epoch();
    rep.api_requests = api_reg.counter_value("api_requests_total");
    rep.api_cache_hits = api_reg.counter_value("api_cache_hits_total");
    rep.api_cache_misses = api_reg.counter_value("api_cache_misses_total");
    rep.incidents = mon.incidents_emitted();
    const auto& pulled = src.pulled();
    for (std::uint64_t i = 0; i < src.total(); ++i) {
      if (!src.is_paced(i)) continue;
      rep.source_lag_ms.push_back(seconds_between(src.due(i), pulled[i]) * 1e3);
      if (has_sink[i]) {
        rep.detect_ms.push_back(seconds_between(pulled[i], first_sink[i]) *
                                1e3);
      }
    }
  }
  rep.store_contents = dump_store(store);
  return rep;
}

metric_map service_metrics(const stream_report& rep,
                           const counting_fs_hook* fs) {
  metric_map m;
  m["service.source_lag_p50_ms"] = percentile(rep.source_lag_ms, 0.5);
  m["service.source_lag_p99_ms"] = percentile(rep.source_lag_ms, 0.99);
  m["service.source_lag_samples"] = static_cast<double>(rep.source_lag_ms.size());
  m["service.queue_high_water"] = static_cast<double>(rep.queue_high_water);
  m["service.detect_ms"] = percentile(rep.detect_ms, 0.5);
  if (fs != nullptr) {
    using fc = counting_fs_hook;
    m["service.checkpoint_writes"] =
        static_cast<double>(fs->fsyncs(fc::checkpoint));
    m["service.checkpoint_bytes"] = static_cast<double>(fs->bytes(fc::checkpoint));
    m["service.feed_bytes"] = static_cast<double>(fs->bytes(fc::feed));
    m["service.wal_fsyncs"] = static_cast<double>(fs->fsyncs(fc::wal));
    m["service.checkpoint_fsyncs"] =
        static_cast<double>(fs->fsyncs(fc::checkpoint));
    m["service.feed_fsyncs"] = static_cast<double>(fs->fsyncs(fc::feed));
  }
  return m;
}

// ---- the live workload -------------------------------------------------------------

namespace {

constexpr int kBenign = 400;
constexpr int kNoise = 2000;
/// Rounds of [backlog, paced] spread over the run.
constexpr std::uint64_t kRounds = 12;
constexpr std::uint64_t kBacklogEpochs = 8;

/// Plain-transfer noise, mainnet's dominant shape (as bench_monitor adds).
void add_noise(leishen::scenarios::universe& u, int count) {
  auto& tok = u.make_token("NOISE", "", 1.0);
  const leishen::address alice = u.bc().create_user_account();
  const leishen::address bob = u.bc().create_user_account();
  u.airdrop(tok, alice, leishen::units(1'000'000, 18));
  u.airdrop(tok, bob, leishen::units(1'000'000, 18));
  for (int i = 0; i < count; ++i) {
    const leishen::address& from = (i % 2) == 0 ? alice : bob;
    const leishen::address& to = (i % 2) == 0 ? bob : alice;
    u.bc().execute(from, "noise transfer", [&](leishen::chain::context& ctx) {
      tok.transfer(ctx, to, leishen::units(1, 18));
    });
  }
}

}  // namespace

void run_live(const options& opt, run_result& res) {
  tracer tr;
  if (opt.trace) tracer::install(&tr);
  counting_fs_hook fs;

  // ---- set-up: the universe and its batch reference ------------------------
  leishen::scenarios::universe u;
  const std::vector<leishen::scenarios::known_attack> attacks =
      leishen::scenarios::run_known_attacks(u);
  leishen::scenarios::population_params pp;
  pp.seed = opt.seed;
  pp.benign_txs = kBenign;
  const leishen::scenarios::population pop =
      leishen::scenarios::generate_population(u, pp);
  add_noise(u, kNoise);
  const std::vector<tx_receipt>& receipts = u.bc().receipts();
  substrate sub{&u.bc().creations(), &u.labels(), u.weth().id(), {}};
  sub.scan.yield_aggregator_apps = pop.aggregator_apps;

  incident_list reference;
  std::map<std::uint64_t, std::uint64_t> block_of_tx;
  {
    lc::scanner s{*sub.creations, *sub.labels, sub.weth, sub.scan};
    for (const tx_receipt& r : receipts) {
      block_of_tx[r.tx_index] = r.block_number;
      if (const lc::incident* inc = s.scan(r)) {
        reference.push_back(lsv::monitor_incident{r.block_number, *inc, {}});
      }
    }
  }
  const std::uint64_t span_blocks = epoch_span_of(receipts);
  std::uint64_t blocks_per_epoch = 0;
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    if (i == 0 || receipts[i].block_number != receipts[i - 1].block_number) {
      ++blocks_per_epoch;
    }
  }
  // Whole epochs: the paced phases fill about 75% of the measured time.
  const std::uint64_t paced_epochs = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             0.75 * opt.seconds * kPacedBlocksPerS /
             static_cast<double>(kRounds * blocks_per_epoch)));
  std::fprintf(stderr,
               "live: %zu receipts in %llu blocks per epoch, %zu incidents "
               "per epoch, %llu rounds of %llu backlog + %llu paced epochs\n",
               receipts.size(),
               static_cast<unsigned long long>(blocks_per_epoch),
               reference.size(),
               static_cast<unsigned long long>(kRounds),
               static_cast<unsigned long long>(kBacklogEpochs),
               static_cast<unsigned long long>(paced_epochs));

  // The restart state a recovery reads: a WAL holding exactly the
  // incidents the run will have logged (the same frames in the same order;
  // the final check compares it with the run's own WAL).
  const std::uint64_t epochs = kRounds * (kBacklogEpochs + paced_epochs);
  incident_list expected;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (lsv::monitor_incident inc : reference) {
      inc.block_number += e * span_blocks;
      expected.push_back(inc);
    }
  }
  const std::string snapshot_wal = opt.work_dir + "/restart-wal";
  {
    ls::wal_options wo;
    wo.dir = snapshot_wal;
    wo.fsync_every_n = 0;
    ls::wal_writer wal{wo};
    for (const lsv::monitor_incident& inc : expected) wal.append(inc, false);
    wal.flush();
  }
  const double setup_s = seconds_between(process_start, clock_type::now());
  std::fprintf(stderr, "live: set-up %.2fs\n", setup_s);

  // ---- measured: rounds of backlog then paced blocks, the reader throughout ----
  std::unique_ptr<scoped_fs_hook> hook;
  if (opt.trace) hook = std::make_unique<scoped_fs_hook>(fs);
  stream_config cfg;
  cfg.sub = sub;
  cfg.receipts = &receipts;
  cfg.rounds = kRounds;
  cfg.backlog_epochs = kBacklogEpochs;
  cfg.paced_epochs = paced_epochs;
  cfg.dir = opt.work_dir + "/live";
  // A restart between rounds, while the monitor is idle: recover_wal of the
  // restart WAL plus a monitor resuming from the live checkpoint.
  std::vector<double> recovery;
  std::size_t recovered_incidents = 0;
  cfg.between_rounds = [&](std::uint64_t) {
    span sp{"store.recover"};
    ls::incident_store recovered;
    lsv::metrics_registry reg;
    lsv::monitor_options mo;
    mo.scan = sub.scan;
    mo.checkpoint_path = cfg.dir + "/monitor.ckpt";
    const auto t0 = clock_type::now();
    ls::recover_wal(snapshot_wal, recovered);
    lsv::monitor_service mon{*sub.creations, *sub.labels, sub.weth, reg, mo};
    const bool resumed = mon.resume_from_checkpoint();
    recovery.push_back(seconds_between(t0, clock_type::now()));
    if (!resumed) res.fail("no monitor checkpoint to resume from");
    recovered_incidents = recovered.stats().active;
  };
  rss_sampler rss;
  stream_report rep;
  {
    span sp{"bench.live_stream"};
    rep = run_stream(cfg);
  }
  hook.reset();
  res.check("live", rep.problems);

  // ---- the run's own restart state recovers to the live store -----------------
  const double rss_mb_run = rss.stop();
  {
    ls::incident_store recovered;
    ls::recover_wal(rep.wal_dir, recovered);
    const incident_list own = dump_store(recovered);
    res.check("recovered vs live", check_same_incidents(rep.store_contents, own));
    if (recovered_incidents != own.size()) {
      res.fail("restart WAL held " + std::to_string(recovered_incidents) +
               " incidents, the run's own WAL " + std::to_string(own.size()));
    }
  }
  const double rss_mb = rss_mb_run;

  // ---- checks ----------------------------------------------------------------------
  res.check("live store vs batch scanner",
            check_same_incidents(expected, rep.store_contents));
  {
    std::vector<page_item> want, got;
    for (const lsv::monitor_incident& inc : expected) {
      want.push_back({0, inc.block_number, inc.incident.tx_index});
    }
    for (page_item it : rep.api_visible) {
      it.id = 0;
      got.push_back(it);
    }
    if (want != got) {
      res.fail("API-visible set (" + std::to_string(got.size()) +
               " incidents) differs from the batch scanner's (" +
               std::to_string(want.size()) + ")");
    }
  }
  {
    std::vector<expected_flag> flags;
    for (std::uint64_t e = 0; e < epochs; ++e) {
      for (const auto& a : attacks) {
        flags.push_back({block_of_tx[a.tx_index] + e * span_blocks,
                         a.tx_index, a.leishen_expected,
                         a.name + " (epoch " + std::to_string(e) + ")"});
      }
    }
    res.check("known attacks", check_known_attacks(flags, rep.api_visible));
  }
  res.check("visibility", check_visible_after_due(rep.visible));
  const std::size_t paced_incidents =
      reference.size() * paced_epochs * kRounds;
  if (rep.visible.size() != paced_incidents) {
    res.fail("reader saw " + std::to_string(rep.visible.size()) +
             " paced incidents, expected " + std::to_string(paced_incidents));
  }

  // ---- metrics ------------------------------------------------------------------------
  // Visibility per round's paced phase, median across rounds.
  std::vector<std::vector<double>> visible_groups(kRounds);
  std::vector<double> visible_ms;
  for (const visibility_sample& v : rep.visible) {
    const std::uint64_t epoch = (v.block - rep.first_block) / rep.epoch_span;
    visible_groups[epoch / (kBacklogEpochs + paced_epochs)].push_back(
        (v.seen_s - v.due_s) * 1e3);
    visible_ms.push_back((v.seen_s - v.due_s) * 1e3);
  }
  // Reader rate per paced phase, median across rounds.
  std::vector<double> query_us, reader_qps;
  std::vector<std::size_t> per_round(rep.paced_windows.size(), 0);
  for (const timed_sample& q : rep.queries) {
    query_us.push_back(q.v);
    for (std::size_t r = 0; r < rep.paced_windows.size(); ++r) {
      if (q.t >= rep.paced_windows[r].first && q.t < rep.paced_windows[r].second) {
        ++per_round[r];
      }
    }
  }
  for (std::size_t r = 0; r < rep.paced_windows.size(); ++r) {
    reader_qps.push_back(static_cast<double>(per_round[r]) /
                         (rep.paced_windows[r].second - rep.paced_windows[r].first));
  }
  res.attempted = rep.catchup_blocks + rep.paced_blocks + query_us.size();
  std::fprintf(stderr,
               "live: backlog %llu blocks (median epoch %.1f ms), paced %llu "
               "blocks in %.3fs; %zu visibility samples, %zu queries\n",
               static_cast<unsigned long long>(rep.catchup_blocks),
               median(rep.catchup_epoch_s) * 1e3,
               static_cast<unsigned long long>(rep.paced_blocks),
               rep.paced_seconds, visible_ms.size(), query_us.size());
  const double catchup_bps = static_cast<double>(rep.blocks_per_epoch) /
                             median(rep.catchup_epoch_s);
  if (!opt.trace) {
    res.metric("setup_s", setup_s, "s");
    res.metric("blocks_per_s", catchup_bps, "blocks/s");
    res.metric("visible_p50_ms", median_of_groups(visible_groups, 0.5),
               "ms");
    res.metric("queries_per_s", median(reader_qps), "queries/s");
    res.metric("recovery_s", median(recovery), "s");
    res.metric("rss_peak_mb", rss_mb, "MB");
    return;
  }

  // ---- traced run: per-layer metrics ------------------------------------------------
  metric_map m = service_metrics(rep, &fs);
  m.merge(probe_core(sub, receipts));
  m.merge(probe_corpus_from(receipts, opt.work_dir + "/corpus-probe"));
  m.merge(probe_fleet(sub, receipts, opt.work_dir + "/fleet-probe"));
  metric_map st = probe_store(rep.store_contents, opt.work_dir + "/store-probe");
  using fc = counting_fs_hook;
  st["store.wal_bytes_per_incident"] =
      static_cast<double>(fs.bytes(fc::wal)) / static_cast<double>(rep.incidents);
  st["store.wal_records_per_fsync"] =
      fs.fsyncs(fc::wal) > 0 ? static_cast<double>(rep.incidents) /
                                   static_cast<double>(fs.fsyncs(fc::wal))
                             : 0.0;
  m.merge(st);
  {
    ls::incident_store s;
    s.insert_batch(rep.store_contents);
    m.merge(probe_api(s));
  }
  m["api.cache_hit_ratio"] =
      rep.api_cache_hits + rep.api_cache_misses > 0
          ? static_cast<double>(rep.api_cache_hits) /
                static_cast<double>(rep.api_cache_hits + rep.api_cache_misses)
          : 0.0;
  m["api.cache_lookups"] =
      static_cast<double>(rep.api_cache_hits + rep.api_cache_misses);
  m["api.not_modified_ratio"] =
      rep.api_requests > 0 ? static_cast<double>(rep.not_modified) /
                                 static_cast<double>(rep.api_requests)
                           : 0.0;
  m["api.transport_us"] =
      std::max(0.0, percentile(query_us, 0.5) - m["api.handle_us"]);
  // Ledger of the catch-up phase: blocks timed through the serial scanner
  // plus the WAL-on inserts; the rest is the monitor's queue handoff,
  // checkpoints and sinks inside the program.
  const double layers_s =
      static_cast<double>(rep.catchup_blocks) / m["core.serial_scan_blocks_per_s"] +
      static_cast<double>(reference.size() * kRounds * kBacklogEpochs) *
          m["store.insert_us"] * 1e-6;
  double backlog_s = 0.0;
  for (const double e : rep.catchup_epoch_s) backlog_s += e;
  m["ledger.residual_share"] = std::max(0.0, 1.0 - layers_s / backlog_s);
  tracer::install(nullptr);
  const auto self = tr.self_seconds_by_layer();
  for (const char* layer : {"corpus", "core", "service", "fleet", "store",
                            "api"}) {
    const auto it = self.find(layer);
    m[std::string{"trace."} + layer + ".self_s"] =
        it == self.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> summary = m;
  summary["e2e.blocks_per_s"] = catchup_bps;
  summary["e2e.visible_p50_ms"] = percentile(visible_ms, 0.5);
  summary["e2e.query_p50_us"] = percentile(query_us, 0.5);
  summary["e2e.recovery_s"] = median(recovery);
  summary["e2e.setup_s"] = setup_s;
  tr.write(opt.trace_dir + "/trace-live-" + std::to_string(opt.seed) + ".json",
           summary);
  emit_layer_metrics(res, m);
}

}  // namespace perfbench
