/// \file bench_serve_multitask.cc
/// \brief Multi-task gateway benchmark: many fitted tasks in one process
/// behind the SessionRegistry.
///
/// The workload emulates bursty production traffic: W submitter threads
/// drain one shared request counter whose task assignment changes every
/// `kBurst` requests (requests for one task arrive clustered, the way
/// per-task client batches do). Each request resolves its task through
/// the registry (warm LRU hit) and labels one image with `LabelOne`.
///
/// Two request mixes per task count (1 vs 8 resident tasks):
///  - `unique`: every in-flight image distinct;
///  - `hot`: a Zipf-flavored mix (half the requests hit a few hot
///    images, the way popular content hits a real gateway).
///
/// Reported per task count: singleton img/s per mix, warm registry
/// Acquire() latency, and resident bytes. Metrics land in
/// BENCH_serve_multitask.json via the bench_common.h hook.

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "util/parallel.h"
#include "util/table.h"

namespace goggles::bench {
namespace {

constexpr int kThreads = 16;  ///< concurrent submitters (worker pool stand-in)
constexpr int kBurst = 32;    ///< same-task run length in the request stream

namespace fs = std::filesystem;

/// Deterministic per-request image pick. The `hot` mix sends half the
/// requests to the currently-trending image (it stays hot for a window
/// of requests, the way popular content hits a real gateway, so
/// concurrent requests actually collide); `unique` cycles the whole
/// query set so concurrent requests hold distinct images.
const data::Image& PickQuery(const std::vector<data::Image>& queries, int i,
                             bool hot_mix) {
  if (hot_mix && i % 2 == 0) {
    return queries[static_cast<size_t>((i / 32) % 4)];
  }
  return queries[static_cast<size_t>(i) % queries.size()];
}

/// Drains `requests` labeling requests across `kThreads` submitters.
/// Returns wall seconds.
double RunLoad(serve::SessionRegistry* registry,
               const std::vector<std::string>& tasks,
               const std::vector<data::Image>& queries, int requests,
               bool hot_mix) {
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      // The submitters cover the cores, so per-request kernels stay on
      // this thread.
      ScopedSerialKernels serial_kernels;
      while (true) {
        const int i = next.fetch_add(1);
        if (i >= requests || failed.load()) break;
        const std::string& task =
            tasks[static_cast<size_t>(i / kBurst) % tasks.size()];
        auto session = registry->Acquire(task);
        if (!session.ok()) {
          failed.store(true);
          session.status().Abort("Acquire");
        }
        auto label = (*session)->LabelOne(PickQuery(queries, i, hot_mix));
        if (!label.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed.load()) {
    Status::Internal("multitask bench labeling failed").Abort("RunLoad");
  }
  return timer.ElapsedSeconds();
}

void RunExperiment() {
  BenchScale scale = GetBenchScale();
  Banner("Serving — multi-task gateway", scale);
  eval::RunnerContext ctx = MakeBenchContext();

  const int per_class = scale.name == "paper" ? 120 : 60;
  const int requests = scale.name == "paper" ? 512 : 128;

  // One fitted task, cloned into N distinct artifacts: serving cost is
  // identical per task, and fitting once keeps the bench fast.
  eval::TaskSuiteConfig task_config;
  task_config.num_pairs = 1;
  task_config.images_per_class = per_class;
  auto tasks = eval::MakeTasks("surface", task_config);
  tasks.status().Abort("tasks");
  const eval::LabelingTask& task = (*tasks)[0];
  auto session =
      serve::Session::Fit(ctx.extractor, task.train.images, task.dev_indices,
                          task.dev_labels, task.num_classes, ctx.goggles);
  session.status().Abort("Session::Fit");
  const int pool_size = static_cast<int>(task.train.size());

  const fs::path dir =
      fs::temp_directory_path() / "goggles_bench_multitask_artifacts";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  session->Save((dir / "task_0.ggsa").string()).Abort("Save");
  constexpr int kMaxTasks = 8;
  for (int t = 1; t < kMaxTasks; ++t) {
    fs::copy_file(dir / "task_0.ggsa",
                  dir / ("task_" + std::to_string(t) + ".ggsa"), ec);
  }

  std::vector<data::Image> queries(
      task.test.images.begin(),
      task.test.images.begin() + std::min<size_t>(32, task.test.images.size()));

  AsciiTable table("Multi-task serving: singleton labeling");
  table.SetHeader({"tasks", "mix", "singleton img/s"});

  RecordBenchMetric("pool_size", pool_size);
  RecordBenchMetric("threads", kThreads);
  RecordBenchMetric("requests", requests);

  for (int num_tasks : {1, kMaxTasks}) {
    serve::RegistryConfig registry_config;
    registry_config.artifact_dir = dir.string();
    serve::SessionRegistry registry(ctx.extractor, registry_config);

    std::vector<std::string> task_names;
    for (int t = 0; t < num_tasks; ++t) {
      task_names.push_back("task_" + std::to_string(t));
      registry.Acquire(task_names.back()).status().Abort("warm Acquire");
    }

    // Warm registry hot path: Acquire() of a resident task.
    {
      WallTimer timer;
      constexpr int kAcquires = 2000;
      for (int i = 0; i < kAcquires; ++i) {
        auto acquired = registry.Acquire(task_names[static_cast<size_t>(i) %
                                                    task_names.size()]);
        if (!acquired.ok()) acquired.status().Abort("warm Acquire");
      }
      RecordBenchMetric(
          StrFormat("tasks%d_acquire_warm_us", num_tasks),
          timer.ElapsedSeconds() * 1e6 / kAcquires);
    }

    for (const bool hot_mix : {false, true}) {
      const char* mix = hot_mix ? "hot" : "unique";
      const double singleton_seconds =
          RunLoad(&registry, task_names, queries, requests, hot_mix);
      const double singleton_rate =
          static_cast<double>(requests) / std::max(singleton_seconds, 1e-9);

      table.AddRow({StrFormat("%d", num_tasks), mix,
                    StrFormat("%.1f", singleton_rate)});
      RecordBenchMetric(StrFormat("tasks%d_%s_singleton_img_per_s",
                                  num_tasks, mix),
                        singleton_rate);
    }
    RecordBenchMetric(
        StrFormat("tasks%d_resident_bytes", num_tasks),
        static_cast<double>(registry.stats().resident_bytes));
    std::printf("  [%d task%s done]\n", num_tasks,
                num_tasks == 1 ? "" : "s");
  }

  fs::remove_all(dir, ec);
  table.Print();
}

}  // namespace
}  // namespace goggles::bench

int main() {
  goggles::bench::RunExperiment();
  return 0;
}
