// Per-layer probes for the traced run: timed calls into each module's
// public functions, made from the benchmark's own code on the workload's
// own inputs. Every probe returns metric name -> value; units are fixed by
// BENCHMARK.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/http_server.h"
#include "chain/receipt.h"
#include "common.h"
#include "core/scanner.h"
#include "corpus/corpus_reader.h"
#include "service/incident_sink.h"
#include "store/incident_store.h"

namespace perfbench {

using metric_map = std::map<std::string, double>;

/// The detection substrate a workload's receipts were produced against.
struct substrate {
  const leishen::chain::creation_registry* creations = nullptr;
  const leishen::etherscan::label_db* labels = nullptr;
  leishen::chain::asset weth;
  leishen::core::scanner_options scan;
};

/// core: prefilter cost and precision over `receipts`, then the six Fig. 5
/// stages timed one by one on the flash-loan transactions among them, and
/// the serial batch scanner's blocks/s over them.
metric_map probe_core(const substrate& sub,
                      const std::vector<leishen::chain::tx_receipt>& receipts);

/// corpus: open (mmap + checksum), full and header-only decode, and the
/// packed prefilter column, over `reader`.
metric_map probe_corpus(const leishen::corpus::corpus_reader& reader,
                        double open_seconds);

/// corpus over receipts that do not come from a corpus: write them to a
/// `.lsc` file under `dir` first, then probe it like a corpus.
metric_map probe_corpus_from(const std::vector<leishen::chain::tx_receipt>&
                                 receipts,
                             const std::string& dir);

/// store: insert with and without an fsync-per-record WAL, raw WAL append,
/// WAL bytes per incident, recovery rate, and direct query time per filter
/// class over a store loaded with `incidents`.
metric_map probe_store(const std::vector<leishen::service::monitor_incident>&
                           incidents,
                       const std::string& dir);

/// api: direct `http_server::handle` and `parse_request_head` over a mix
/// of list/filter/detail targets against `store`.
metric_map probe_api(const leishen::store::incident_store& store);

/// fleet: a receipt-mode `shard_coordinator` over `receipts` against the
/// serial scanner over the same receipts (fleet.gap_ratio).
metric_map probe_fleet(const substrate& sub,
                       const std::vector<leishen::chain::tx_receipt>& receipts,
                       const std::string& dir);

/// The query mix's filter classes, for store.query_us.<class>.
std::vector<std::pair<std::string, leishen::store::incident_filter>>
filter_classes(const leishen::store::incident_store& store);

/// Full store contents in canonical order, by keyset pagination.
std::vector<leishen::service::monitor_incident> dump_store(
    const leishen::store::incident_store& store);

/// Every per-layer metric BENCHMARK.json declares, with its unit.
struct layer_metric {
  const char* name;
  const char* unit;
};
const std::vector<layer_metric>& layer_metrics();

/// Emit `m` into the result in the declared order; a declared metric the
/// run did not produce is reported on stderr and fails the run.
void emit_layer_metrics(run_result& res, const metric_map& m);

}  // namespace perfbench
