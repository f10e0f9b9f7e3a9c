#include "obs/resource_profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <time.h>
#include <unistd.h>
#endif

#include "common/annotated_mutex.h"
#include "common/json_writer.h"
#include "obs/metrics.h"
#include "obs/seqlock_ring.h"

namespace us3d::obs {

namespace {

/// Immutable identity of a registered thread plus its exit flag. All
/// mutable sampling state lives in ProfilerState (under its mutex), so
/// this struct needs no lock of its own.
struct ThreadEntry {
  std::string stage;
#ifdef __linux__
  clockid_t clock{};
  bool clock_ok = false;
#endif
  std::atomic<bool> retired{false};
};

/// Per-entry sampler bookkeeping (baselines for the rate computation).
struct PerThread {
  std::uint64_t last_cpu_ns = 0;
  std::uint64_t last_wall_ns = 0;
  bool primed = false;
};

/// Per-stage aggregate carried across samples (peaks survive thread
/// churn within a stage).
struct StageAgg {
  double cpu_permille = 0;
  double cpu_permille_peak = 0;
  double cpu_seconds = 0;
  int threads = 0;
};

struct ProfilerState {
  Mutex mutex;
  std::vector<std::shared_ptr<ThreadEntry>> entries US3D_GUARDED_BY(mutex);
  std::map<const ThreadEntry*, PerThread> sampling US3D_GUARDED_BY(mutex);
  std::map<std::string, StageAgg> stages US3D_GUARDED_BY(mutex);
  std::int64_t rss_bytes US3D_GUARDED_BY(mutex) = 0;
  std::int64_t rss_bytes_peak US3D_GUARDED_BY(mutex) = 0;
  std::int64_t vm_bytes US3D_GUARDED_BY(mutex) = 0;
  std::uint64_t samples US3D_GUARDED_BY(mutex) = 0;
  bool stop_requested US3D_GUARDED_BY(mutex) = false;
  std::thread sampler US3D_GUARDED_BY(mutex);
  CondVar cv;
  std::atomic<bool> running{false};
};

// Leaked on purpose: stage threads may unregister during static
// destruction, after a non-leaked state would already be gone.
ProfilerState& prof_state() {
  static ProfilerState* s = new ProfilerState();
  return *s;
}

// Marks this thread's entry retired at thread exit; the next sample drops
// it from the roster.
struct ProfilerHandle {
  std::shared_ptr<ThreadEntry> entry;
  ~ProfilerHandle() {
    if (entry) entry->retired.store(true, std::memory_order_release);
  }
};

thread_local ProfilerHandle t_prof_handle;

/// Cumulative CPU time of the entry's thread, or false once the thread is
/// gone (the kernel recycles the clock with ESRCH/EINVAL).
bool read_thread_cpu_ns(const ThreadEntry& entry, std::uint64_t* out) {
#ifdef __linux__
  if (!entry.clock_ok) return false;
  struct timespec ts;
  if (clock_gettime(entry.clock, &ts) != 0) return false;
  *out = static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
  return true;
#else
  (void)entry;
  (void)out;
  return false;
#endif
}

/// /proc/self/statm: "size resident ..." in pages.
void read_process_memory(std::int64_t* vm_bytes, std::int64_t* rss_bytes) {
  *vm_bytes = 0;
  *rss_bytes = 0;
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return;
  long long pages_vm = 0;
  long long pages_rss = 0;
  if (std::fscanf(f, "%lld %lld", &pages_vm, &pages_rss) == 2) {
    const long page = sysconf(_SC_PAGESIZE);
    *vm_bytes = static_cast<std::int64_t>(pages_vm) * page;
    *rss_bytes = static_cast<std::int64_t>(pages_rss) * page;
  }
  std::fclose(f);
#endif
}

}  // namespace

ResourceProfiler& ResourceProfiler::global() {
  static ResourceProfiler profiler;
  (void)prof_state();
  return profiler;
}

void ResourceProfiler::register_current_thread(const std::string& stage) {
  if (t_prof_handle.entry) return;  // first registration wins
  auto entry = std::make_shared<ThreadEntry>();
  entry->stage = stage;
#ifdef __linux__
  entry->clock_ok = pthread_getcpuclockid(pthread_self(), &entry->clock) == 0;
#endif
  ProfilerState& s = prof_state();
  MutexLock lock(s.mutex);
  s.entries.push_back(entry);
  t_prof_handle.entry = std::move(entry);
}

void ResourceProfiler::sample_once(MetricsRegistry& registry) {
  ProfilerState& s = prof_state();
  // Aggregate under the lock, publish after: gauge handles come from the
  // registry (its own lock) and must not nest inside ours.
  std::map<std::string, StageAgg> stages;
  std::int64_t rss = 0;
  std::int64_t vm = 0;
  {
    MutexLock lock(s.mutex);
    const std::uint64_t now = steady_now_ns();
    for (auto& stage : s.stages) {
      stage.second.cpu_permille = 0;
      stage.second.cpu_seconds = 0;
      stage.second.threads = 0;
    }
    auto dead = [&](const std::shared_ptr<ThreadEntry>& e) {
      std::uint64_t cpu = 0;
      if (e->retired.load(std::memory_order_acquire) ||
          !read_thread_cpu_ns(*e, &cpu)) {
        s.sampling.erase(e.get());
        return true;
      }
      PerThread& pt = s.sampling[e.get()];
      StageAgg& agg = s.stages[e->stage];
      agg.threads += 1;
      agg.cpu_seconds += static_cast<double>(cpu) / 1e9;
      if (pt.primed && now > pt.last_wall_ns && cpu >= pt.last_cpu_ns) {
        const double dt_cpu = static_cast<double>(cpu - pt.last_cpu_ns);
        const double dt_wall = static_cast<double>(now - pt.last_wall_ns);
        agg.cpu_permille += 1000.0 * dt_cpu / dt_wall;
      }
      pt.last_cpu_ns = cpu;
      pt.last_wall_ns = now;
      pt.primed = true;
      return false;
    };
    s.entries.erase(std::remove_if(s.entries.begin(), s.entries.end(), dead),
                    s.entries.end());
    for (auto& stage : s.stages) {
      if (stage.second.cpu_permille > stage.second.cpu_permille_peak) {
        stage.second.cpu_permille_peak = stage.second.cpu_permille;
      }
    }
    read_process_memory(&s.vm_bytes, &s.rss_bytes);
    if (s.rss_bytes > s.rss_bytes_peak) s.rss_bytes_peak = s.rss_bytes;
    ++s.samples;
    stages = s.stages;
    rss = s.rss_bytes;
    vm = s.vm_bytes;
  }
  for (const auto& stage : stages) {
    const std::string prefix = "profile." + stage.first;
    registry.gauge(prefix + ".cpu_permille")
        ->set(static_cast<std::int64_t>(stage.second.cpu_permille));
    registry.gauge(prefix + ".threads")->set(stage.second.threads);
  }
  registry.gauge("profile.rss_bytes")->set(rss);
  registry.gauge("profile.vm_bytes")->set(vm);
}

void ResourceProfiler::start(MetricsRegistry& registry,
                             std::chrono::milliseconds period) {
  ProfilerState& s = prof_state();
  MutexLock lock(s.mutex);
  if (s.running.load(std::memory_order_relaxed)) return;
  s.stop_requested = false;
  s.running.store(true, std::memory_order_relaxed);
  s.sampler = std::thread([this, &registry, period] {
    ProfilerState& st = prof_state();
    for (;;) {
      {
        MutexLock sampler_lock(st.mutex);
        if (st.stop_requested) return;
        // Spurious/early wakeups just mean an early sample — harmless.
        st.cv.wait_for(st.mutex,
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           period));
        if (st.stop_requested) return;
      }
      sample_once(registry);
    }
  });
}

void ResourceProfiler::stop() {
  ProfilerState& s = prof_state();
  std::thread sampler;
  {
    MutexLock lock(s.mutex);
    if (!s.running.load(std::memory_order_relaxed)) return;
    s.stop_requested = true;
    sampler = std::move(s.sampler);
  }
  s.cv.notify_all();
  if (sampler.joinable()) sampler.join();
  s.running.store(false, std::memory_order_relaxed);
}

bool ResourceProfiler::running() const {
  return prof_state().running.load(std::memory_order_relaxed);
}

ResourceProfile ResourceProfiler::summary() const {
  ProfilerState& s = prof_state();
  ResourceProfile out;
  MutexLock lock(s.mutex);
  for (const auto& stage : s.stages) {
    StageProfile sp;
    sp.stage = stage.first;
    sp.threads = stage.second.threads;
    sp.cpu_permille = stage.second.cpu_permille;
    sp.cpu_permille_peak = stage.second.cpu_permille_peak;
    sp.cpu_seconds = stage.second.cpu_seconds;
    out.stages.push_back(std::move(sp));
  }
  out.rss_bytes = s.rss_bytes;
  out.rss_bytes_peak = s.rss_bytes_peak;
  out.vm_bytes = s.vm_bytes;
  out.samples = s.samples;
  out.running = s.running.load(std::memory_order_relaxed);
  return out;
}

void ResourceProfiler::start_from_env() {
  if (env_flag("US3D_PROFILE")) {
    global().start(MetricsRegistry::global());
  }
}

std::string ResourceProfile::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("running", running)
      .kv("samples", static_cast<std::int64_t>(samples))
      .kv("rss_bytes", rss_bytes)
      .kv("rss_bytes_peak", rss_bytes_peak)
      .kv("vm_bytes", vm_bytes)
      .key("stages")
      .begin_object();
  for (const StageProfile& sp : stages) {
    w.key(sp.stage)
        .begin_object()
        .kv("threads", sp.threads)
        .kv("cpu_permille", sp.cpu_permille)
        .kv("cpu_permille_peak", sp.cpu_permille_peak)
        .kv("cpu_seconds", sp.cpu_seconds)
        .end_object();
  }
  w.end_object().end_object();
  return os.str();
}

}  // namespace us3d::obs
