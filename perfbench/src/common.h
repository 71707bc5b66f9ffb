// Shared plumbing for the production-path benchmark: command-line options,
// timing and order statistics, the peak-RSS sampler, the result line, the
// in-memory span tracer, the counting filesystem hook and a small
// keep-alive HTTP client for the loopback API.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_fs.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(clock_type::time_point a,
                                            clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process start, captured by main() before anything else runs: set-up
/// time is measured from here.
extern const clock_type::time_point process_start;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run's files (removed at exit).
  std::string work_dir;
  /// Where the traced run writes its span file.
  std::string trace_dir;
};

// ---- order statistics --------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// A sample taken at time `t` (seconds on one clock) with value `v`.
struct timed_sample {
  double t = 0.0;
  double v = 0.0;
};

/// Percentile `p` within each group holding at least `min_count` samples,
/// then the median across those groups — a whole-run figure that one slow
/// stretch of a shared host cannot move. Falls back to the pooled
/// percentile when no group qualifies.
[[nodiscard]] double median_of_groups(
    const std::vector<std::vector<double>>& groups, double p,
    std::size_t min_count = 1);


// ---- peak RSS ------------------------------------------------------------------

/// Current VmRSS of this process in kB, read from /proc/self/status.
[[nodiscard]] std::uint64_t rss_kb();

/// Samples VmRSS every 10 ms on a background thread until `stop()`, which
/// returns the peak in MB. Covers only the interval it is alive.
class rss_sampler {
 public:
  rss_sampler();
  ~rss_sampler();
  rss_sampler(const rss_sampler&) = delete;
  rss_sampler& operator=(const rss_sampler&) = delete;

  double stop();

 private:
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> peak_kb_{0};
  std::thread thread_;
};

// ---- result line -----------------------------------------------------------------

/// Collects the run's metrics and the correctness verdict and prints the
/// one-line JSON result the benchmark ends with.
struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed correctness check (the run then reports correct=false).
  void fail(const std::string& why);
  /// Fold a check's problem list into the verdict under a label.
  void check(const std::string& label, const std::vector<std::string>& found);

  [[nodiscard]] std::string json() const;
};

// ---- tracing ---------------------------------------------------------------------

/// In-memory span recorder. Spans are opened around calls into the
/// program's modules from the benchmark's own code; the layer of a span is
/// its name up to the first '.'. Nothing is recorded unless a tracer is
/// installed (the untraced run pays one relaxed load per span).
class tracer {
 public:
  struct span_record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::string name;
    std::int64_t start_ns = 0;  // since the tracer's epoch
    std::int64_t end_ns = 0;
  };

  tracer();

  static void install(tracer* t) noexcept;
  [[nodiscard]] static tracer* active() noexcept;

  std::uint64_t open(const std::string& name, std::uint64_t parent);
  void close(std::uint64_t id);

  /// Self time per layer in seconds: each span's duration minus the part
  /// covered by its children, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  /// Write every span plus the per-layer self time and `extra` key/values
  /// as JSON to `path`.
  void write(const std::string& path,
             const std::map<std::string, double>& extra) const;

 private:
  clock_type::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<span_record> spans_;
};

/// RAII span: opens on construction, closes on destruction. Parent is the
/// innermost open span on this thread unless given explicitly.
class span {
 public:
  explicit span(const std::string& name, std::uint64_t parent = 0);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  std::uint64_t id_ = 0;
  std::uint64_t saved_ = 0;
};

// ---- filesystem accounting ---------------------------------------------------------

/// A passthrough fault_fs hook that counts bytes written and fsyncs per
/// file class: the store WAL (wal-*.log), checkpoints (*.ckpt*) and
/// incident feeds (*.jsonl). Installed only in the traced run.
class counting_fs_hook final : public leishen::fault_fs::fault_hook {
 public:
  enum file_class { wal, checkpoint, feed, other, kClasses };

  std::size_t on_write(const std::string& path, std::size_t n,
                       int& err) override;
  bool on_fsync(const std::string& path, int& err) override;

  [[nodiscard]] std::uint64_t bytes(file_class c) const {
    return bytes_[c].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fsyncs(file_class c) const {
    return fsyncs_[c].load(std::memory_order_relaxed);
  }

  static file_class classify(const std::string& path);

 private:
  std::atomic<std::uint64_t> bytes_[kClasses] = {};
  std::atomic<std::uint64_t> fsyncs_[kClasses] = {};
};

/// Installs a counting hook for its lifetime (restores the previous one).
class scoped_fs_hook {
 public:
  explicit scoped_fs_hook(counting_fs_hook& h);
  ~scoped_fs_hook();
  scoped_fs_hook(const scoped_fs_hook&) = delete;
  scoped_fs_hook& operator=(const scoped_fs_hook&) = delete;

 private:
  leishen::fault_fs::fault_hook* previous_;
};

// ---- HTTP client -------------------------------------------------------------------

struct http_reply {
  int status = 0;  // 0 = transport failure
  std::string etag;
  std::string body;
};

/// Blocking keep-alive HTTP/1.1 client for the loopback API.
class http_client {
 public:
  explicit http_client(std::uint16_t port, std::string api_key = "");
  ~http_client();
  http_client(const http_client&) = delete;
  http_client& operator=(const http_client&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  http_reply get(const std::string& target,
                 const std::string& if_none_match = "");

 private:
  int fd_ = -1;
  std::string api_key_;
  std::string buf_;
};

/// One incident as an /incidents page lists it.
struct page_item {
  std::uint64_t id = 0;
  std::uint64_t block = 0;
  std::uint64_t tx = 0;

  friend bool operator==(const page_item&, const page_item&) = default;
};

struct parsed_page {
  bool ok = false;
  std::uint64_t total = 0;
  bool has_more = false;
  std::string next;
  std::vector<page_item> items;
};

/// Parse the fields of an /incidents body the benchmark checks.
[[nodiscard]] parsed_page parse_page(const std::string& body);

// ---- misc ---------------------------------------------------------------------------

/// Remove a directory tree, ignoring errors.
void remove_tree(const std::string& path);
/// Bytes of regular files under `path`.
[[nodiscard]] std::uint64_t tree_bytes(const std::string& path);

}  // namespace perfbench
