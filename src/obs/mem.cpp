#include "obs/mem.h"

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>


namespace rpol::obs {

namespace {

struct TagCell {
  std::atomic<std::uint64_t> current{0};
  std::atomic<std::uint64_t> peak{0};
  std::atomic<std::uint64_t> total{0};
};

// Plain static array, no dynamic init: usable from any static-init-order
// position and during exit, matching the leaked obs Registry.
TagCell g_tags[kNumMemTags];

TagCell& cell(MemTag tag) {
  int i = static_cast<int>(tag);
  if (i < 0 || i >= kNumMemTags) i = static_cast<int>(MemTag::kOther);
  return g_tags[i];
}

constexpr const char* kTagNames[kNumMemTags] = {
    "checkpoint", "merkle", "wire", "packcache", "scratch", "ckptstore",
    "other",
};

}  // namespace

const char* mem_tag_name(MemTag tag) {
  const int i = static_cast<int>(tag);
  if (i < 0 || i >= kNumMemTags) return "other";
  return kTagNames[i];
}

MemTag mem_tag_from_name(std::string_view name) {
  for (int i = 0; i < kNumMemTags; ++i) {
    if (name == kTagNames[i]) return static_cast<MemTag>(i);
  }
  return MemTag::kNumTags;
}

void mem_add(MemTag tag, std::uint64_t bytes) {
  if (bytes == 0) return;
  TagCell& c = cell(tag);
  const std::uint64_t now =
      c.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  c.total.fetch_add(bytes, std::memory_order_relaxed);
  std::uint64_t peak = c.peak.load(std::memory_order_relaxed);
  while (peak < now &&
         !c.peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void mem_sub(MemTag tag, std::uint64_t bytes) {
  if (bytes == 0) return;
  TagCell& c = cell(tag);
  // Clamp at zero: retry the subtraction with whatever is actually live so
  // an unbalanced release can never wrap the counter.
  std::uint64_t cur = c.current.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t take = bytes < cur ? bytes : cur;
    if (c.current.compare_exchange_weak(cur, cur - take,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

MemStats mem_stats(MemTag tag) {
  const TagCell& c = cell(tag);
  MemStats s;
  s.current_bytes = c.current.load(std::memory_order_relaxed);
  s.peak_bytes = c.peak.load(std::memory_order_relaxed);
  s.total_bytes = c.total.load(std::memory_order_relaxed);
  return s;
}

void mem_reset() {
  for (auto& c : g_tags) {
    c.current.store(0, std::memory_order_relaxed);
    c.peak.store(0, std::memory_order_relaxed);
    c.total.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// /proc/self/status

RssSample read_proc_rss() {
  RssSample sample;
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return sample;
  char line[256];
  int found = 0;
  while (found < 2 && std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      sample.vm_rss_bytes = static_cast<std::uint64_t>(kb) * 1024;
      ++found;
    } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      sample.vm_hwm_bytes = static_cast<std::uint64_t>(kb) * 1024;
      ++found;
    }
  }
  std::fclose(f);
  sample.valid = found == 2;
#endif
  return sample;
}

// ---------------------------------------------------------------------------
// RssSampler

struct RssSampler::Impl {
  std::chrono::milliseconds interval;

  mutable std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  bool stopped = false;

  Summary acc;  // guarded by mutex

  std::thread thread;

  void take_sample() {
    const RssSample s = read_proc_rss();
    if (!s.valid) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (acc.samples == 0) {
      acc.baseline_bytes = s.vm_rss_bytes;
      acc.min_bytes = s.vm_rss_bytes;
      acc.peak_bytes = s.vm_rss_bytes;
      acc.valid = true;
    }
    ++acc.samples;
    acc.last_bytes = s.vm_rss_bytes;
    if (s.vm_rss_bytes < acc.min_bytes) acc.min_bytes = s.vm_rss_bytes;
    if (s.vm_rss_bytes > acc.peak_bytes) acc.peak_bytes = s.vm_rss_bytes;
  }

  void run() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      lock.unlock();
      take_sample();
      lock.lock();
      cv.wait_for(lock, interval, [this] { return stopping; });
    }
  }
};

RssSampler::RssSampler(std::chrono::milliseconds interval) : impl_(new Impl) {
  impl_->interval = interval.count() > 0 ? interval
                                         : std::chrono::milliseconds(1);
  impl_->thread = std::thread([this] { impl_->run(); });
}

RssSampler::~RssSampler() {
  stop();
  delete impl_;
}

void RssSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopped) return;
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  // One final sample so a short-lived run still sees its end state.
  impl_->take_sample();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->stopped = true;
}

RssSampler::Summary RssSampler::summary() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Summary s = impl_->acc;
  s.growth_bytes =
      s.peak_bytes > s.baseline_bytes ? s.peak_bytes - s.baseline_bytes : 0;
  return s;
}

}  // namespace rpol::obs
