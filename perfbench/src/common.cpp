#include "common.hpp"

#include <sys/resource.h>

#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

unsigned pool_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";  // Linux: reset VmHWM
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<long>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

ChunkStats::ChunkStats(std::size_t chunk_ops, Clock::time_point start)
    : chunk_ops_(std::max<std::size_t>(chunk_ops, 20)), chunk_start_(start) {
  latency_.reserve(chunk_ops_);
}

double ChunkStats::tail_percentile() const noexcept {
  return 100.0 - 1000.0 / static_cast<double>(chunk_ops_);
}

void ChunkStats::add(double latency_ms, Clock::time_point done) {
  latency_.push_back(latency_ms);
  if (latency_.size() == chunk_ops_) close_chunk(done);
}

void ChunkStats::finish(Clock::time_point done) {
  if (chunks_ == 0 && !latency_.empty()) close_chunk(done);
  latency_.clear();
}

void ChunkStats::close_chunk(Clock::time_point done) {
  const std::size_t n = latency_.size();
  const double seconds = seconds_between(chunk_start_, done);
  chunk_start_ = done;
  std::sort(latency_.begin(), latency_.end());
  best_p50_ = std::min(best_p50_, latency_[(n + 1) / 2 - 1]);
  best_tail_ = std::min(best_tail_, latency_[n > 10 ? n - 11 : n - 1]);
  best_rate_ = std::max(best_rate_, static_cast<double>(n) / seconds);
  ++chunks_;
  latency_.clear();
}

}  // namespace perfbench
