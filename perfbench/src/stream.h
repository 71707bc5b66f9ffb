// The live ingestion path as the benchmark drives it: a paced block
// source replaying a receipt log in consecutive epochs under fresh block
// numbers, one monitor_service with a checkpoint and a durable feed, a
// store_sink into an incident_store with an fsync-per-record WAL, and a
// loopback http_server read by one polling client.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chain/receipt.h"
#include "checks.h"
#include "common.h"
#include "probes.h"
#include "store/incident_store.h"

namespace perfbench {

/// The open-loop block rate of the paced phase: fixed, and well below
/// the backlog drain rate of the live path (about 1,800 blocks/s with
/// fsync-per-record WAL on a 4-thread Xeon host).
inline constexpr double kPacedBlocksPerS = 250.0;
/// The monitor's deployed settings (chain_monitor's single-monitor mode).
inline constexpr std::size_t kQueueCapacity = 64;
inline constexpr std::uint64_t kCheckpointEvery = 8;

struct stream_config {
  substrate sub;
  const std::vector<leishen::chain::tx_receipt>* receipts = nullptr;
  /// Rounds of [backlog epochs served at once, paced epochs on the
  /// open-loop schedule]; spreading both phases over the run keeps one
  /// slow stretch of a shared host from deciding either figure.
  std::uint64_t rounds = 1;
  std::uint64_t backlog_epochs = 0;
  std::uint64_t paced_epochs = 1;
  /// Called after each round with the monitor idle (every block so far
  /// processed, the next backlog held back).
  std::function<void(std::uint64_t round)> between_rounds;
  /// Poll the API for visibility during the paced phases.
  bool reader = true;
  std::string dir;
};

struct stream_report {
  std::uint64_t epoch_span = 0;       // block numbers one epoch occupies
  std::uint64_t first_block = 0;      // first block of epoch 0
  std::uint64_t blocks_per_epoch = 0;
  std::uint64_t catchup_blocks = 0;
  std::uint64_t paced_blocks = 0;
  double paced_seconds = 0.0;
  std::vector<visibility_sample> visible;
  /// Seconds each backlog epoch took to process.
  std::vector<double> catchup_epoch_s;
  /// Each round's paced phase, [start, end) in seconds since the origin.
  std::vector<std::pair<double, double>> paced_windows;
  /// Reader requests: start (seconds since the run's origin) and latency.
  std::vector<timed_sample> queries;
  std::uint64_t not_modified = 0;
  std::vector<double> source_lag_ms;  // block due -> pulled by the producer
  std::vector<double> detect_ms;      // pulled -> first sink call
  std::uint64_t queue_high_water = 0;
  std::uint64_t api_requests = 0, api_cache_hits = 0, api_cache_misses = 0;
  std::uint64_t incidents = 0;
  /// Everything the API lists after the run, by full pagination walk.
  std::vector<page_item> api_visible;
  /// The live store after the run (canonical order).
  std::vector<leishen::service::monitor_incident> store_contents;
  std::string wal_dir;
  std::string checkpoint_path;
  std::vector<std::string> problems;
};

/// Block numbers one epoch of `base` occupies: epoch `e` replays `base`
/// with every block number shifted by `e` times this.
std::uint64_t epoch_span_of(const std::vector<leishen::chain::tx_receipt>& base);

stream_report run_stream(const stream_config& cfg);

/// service.* metrics from a stream run (plus the fs counters when given).
metric_map service_metrics(const stream_report& rep,
                           const counting_fs_hook* fs);

}  // namespace perfbench
