#include "common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/net.h"

namespace perfbench {

const clock_type::time_point process_start = clock_type::now();

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median_of_groups(const std::vector<std::vector<double>>& groups,
                        double p, std::size_t min_count) {
  std::vector<double> per_group, pooled;
  for (const std::vector<double>& g : groups) {
    pooled.insert(pooled.end(), g.begin(), g.end());
    if (g.size() >= min_count && !g.empty()) {
      per_group.push_back(percentile(g, p));
    }
  }
  return per_group.empty() ? percentile(pooled, p) : median(per_group);
}

std::uint64_t rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

rss_sampler::rss_sampler() {
  peak_kb_.store(rss_kb(), std::memory_order_relaxed);
  thread_ = std::thread{[this] {
    while (!done_.load(std::memory_order_acquire)) {
      const std::uint64_t now = rss_kb();
      if (now > peak_kb_.load(std::memory_order_relaxed)) {
        peak_kb_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }};
}

rss_sampler::~rss_sampler() { stop(); }

double rss_sampler::stop() {
  if (thread_.joinable()) {
    done_.store(true, std::memory_order_release);
    thread_.join();
    peak_kb_.store(std::max(peak_kb_.load(), rss_kb()));
  }
  return static_cast<double>(peak_kb_.load()) / 1024.0;
}

// ---- result line ---------------------------------------------------------------

void run_result::metric(const std::string& name, double value,
                        const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void run_result::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void run_result::check(const std::string& label,
                       const std::vector<std::string>& found) {
  for (const std::string& p : found) fail(label + ": " + p);
}

std::string run_result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    char num[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---- tracing -----------------------------------------------------------------------

namespace {
std::atomic<tracer*> g_tracer{nullptr};
thread_local std::uint64_t t_open_span = 0;
}  // namespace

tracer::tracer() : epoch_{clock_type::now()} {}

void tracer::install(tracer* t) noexcept {
  g_tracer.store(t, std::memory_order_release);
}

tracer* tracer::active() noexcept {
  return g_tracer.load(std::memory_order_acquire);
}

std::uint64_t tracer::open(const std::string& name, std::uint64_t parent) {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               clock_type::now() - epoch_)
                               .count();
  const std::lock_guard lk{mu_};
  span_record r;
  r.id = spans_.size() + 1;
  r.parent = parent;
  r.name = name;
  r.start_ns = now;
  r.end_ns = now;
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void tracer::close(std::uint64_t id) {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               clock_type::now() - epoch_)
                               .count();
  const std::lock_guard lk{mu_};
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::map<std::string, double> tracer::self_seconds_by_layer() const {
  const std::lock_guard lk{mu_};
  // Children of one parent may run on other threads and overlap each
  // other, so the covered part of the parent is the union of the
  // children's intervals clipped to the parent.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const span_record& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> out;
  for (const span_record& s : spans_) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

void tracer::write(const std::string& path,
                   const std::map<std::string, double>& extra) const {
  const std::map<std::string, double> self = self_seconds_by_layer();
  std::ofstream os{path};
  os << "{\"self_seconds_by_layer\": {";
  bool first = true;
  for (const auto& [k, v] : self) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  os << "},\n \"summary\": {";
  first = true;
  for (const auto& [k, v] : extra) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  os << "},\n \"spans\": [\n";
  const std::lock_guard lk{mu_};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span_record& s = spans_[i];
    os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << " ]}\n";
}

span::span(const std::string& name, std::uint64_t parent) {
  tracer* t = tracer::active();
  if (t == nullptr) return;
  id_ = t->open(name, parent != 0 ? parent : t_open_span);
  saved_ = t_open_span;
  t_open_span = id_;
}

span::~span() {
  if (id_ == 0) return;
  if (tracer* t = tracer::active()) t->close(id_);
  t_open_span = saved_;
}

// ---- filesystem accounting ---------------------------------------------------------

counting_fs_hook::file_class counting_fs_hook::classify(
    const std::string& path) {
  const std::string name = std::filesystem::path{path}.filename().string();
  if (name.rfind("wal-", 0) == 0) return wal;
  if (name.find(".ckpt") != std::string::npos) return checkpoint;
  if (name.find(".jsonl") != std::string::npos) return feed;
  return other;
}

std::size_t counting_fs_hook::on_write(const std::string& path, std::size_t n,
                                       int& /*err*/) {
  const file_class c = classify(path);
  bytes_[c].fetch_add(n, std::memory_order_relaxed);
  return n;
}

bool counting_fs_hook::on_fsync(const std::string& path, int& /*err*/) {
  fsyncs_[classify(path)].fetch_add(1, std::memory_order_relaxed);
  return false;
}

scoped_fs_hook::scoped_fs_hook(counting_fs_hook& h)
    : previous_{leishen::fault_fs::set_hook(&h)} {}

scoped_fs_hook::~scoped_fs_hook() { leishen::fault_fs::set_hook(previous_); }

// ---- HTTP client -------------------------------------------------------------------

http_client::http_client(std::uint16_t port, std::string api_key)
    : api_key_{std::move(api_key)} {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
  }
}

http_client::~http_client() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {
/// Value of header `name` (case-sensitive as the server renders it) within
/// the head [0, head_end).
std::string header_value(const std::string& buf, std::size_t head_end,
                         const char* name) {
  const std::string key = std::string{"\r\n"} + name + ": ";
  const std::size_t at = buf.find(key);
  if (at == std::string::npos || at >= head_end) return {};
  const std::size_t from = at + key.size();
  const std::size_t to = buf.find("\r\n", from);
  return buf.substr(from, to - from);
}
}  // namespace

http_reply http_client::get(const std::string& target,
                            const std::string& if_none_match) {
  http_reply reply;
  std::string req = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!api_key_.empty()) req += "X-Api-Key: " + api_key_ + "\r\n";
  if (!if_none_match.empty()) req += "If-None-Match: " + if_none_match + "\r\n";
  req += "\r\n";
  if (fd_ < 0 || !leishen::net::send_all(fd_, req)) return reply;
  buf_.clear();
  std::size_t head_end = std::string::npos;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (leishen::net::recv_some(fd_, buf_, 5000) <= 0) return reply;
  }
  const std::string cl = header_value(buf_, head_end, "Content-Length");
  const std::size_t want = cl.empty() ? 0 : std::stoul(cl);
  while (buf_.size() < head_end + 4 + want) {
    if (leishen::net::recv_some(fd_, buf_, 5000) <= 0) return reply;
  }
  reply.status = std::atoi(buf_.c_str() + 9);  // "HTTP/1.1 NNN ..."
  reply.etag = header_value(buf_, head_end, "ETag");
  reply.body = buf_.substr(head_end + 4, want);
  return reply;
}

namespace {
bool read_uint(const std::string& s, std::size_t& pos, std::uint64_t& out) {
  const char* p = s.c_str() + pos;
  char* end = nullptr;
  out = std::strtoull(p, &end, 10);
  if (end == p) return false;
  pos += static_cast<std::size_t>(end - p);
  return true;
}

bool field_uint(const std::string& s, const char* key, std::size_t from,
                std::uint64_t& out, std::size_t* after = nullptr) {
  const std::size_t at = s.find(key, from);
  if (at == std::string::npos) return false;
  std::size_t pos = at + std::strlen(key);
  if (!read_uint(s, pos, out)) return false;
  if (after != nullptr) *after = pos;
  return true;
}
}  // namespace

parsed_page parse_page(const std::string& body) {
  parsed_page page;
  std::size_t items_at = body.find("\"items\":[");
  if (!field_uint(body, "{\"total\":", 0, page.total) ||
      items_at == std::string::npos) {
    return page;
  }
  page.has_more = body.find("\"has_more\":true") < items_at;
  const std::size_t next_at = body.find("\"next\":\"");
  if (next_at < items_at) {
    const std::size_t from = next_at + 8;
    page.next = body.substr(from, body.find('"', from) - from);
  }
  std::size_t pos = items_at;
  while (true) {
    const std::size_t at = body.find("{\"id\":", pos);
    if (at == std::string::npos) break;
    page_item item;
    std::size_t p = 0;
    if (!field_uint(body, "{\"id\":", at, item.id, &p) ||
        !field_uint(body, "{\"block\":", p, item.block, &p) ||
        !field_uint(body, ",\"tx\":", p, item.tx, &p)) {
      return page;
    }
    page.items.push_back(item);
    pos = p;
  }
  page.ok = true;
  return page;
}

// ---- misc -----------------------------------------------------------------------------

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t tree_bytes(const std::string& path) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
