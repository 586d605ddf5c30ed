/// \file fit_workload.cc
/// \brief fit_pool: batch labeling with GogglesPipeline::Label, one task
/// per binary corpus at a pool of 480 images, a fresh pipeline per call so
/// Prepare always runs cold.
///
/// The untraced run times whole Label calls. The traced run replays Label
/// through its public stages (Prepare, ScorePoolRowsInto,
/// HierarchicalLabeler::Fit) with a span around each, checks that the
/// replay reproduces Label's labels, and then runs the hierarchical
/// model's components (base GMMs, ensemble, mappings) one after another
/// to report their serial work.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <thread>

#include "eval/backbone.h"
#include "eval/metrics.h"
#include "eval/tasks.h"
#include "goggles/affinity.h"
#include "goggles/base_gmm.h"
#include "goggles/ensemble.h"
#include "goggles/hierarchical.h"
#include "goggles/mapping.h"
#include "goggles/pipeline.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using goggles::serve::JsonValue;

namespace {

constexpr const char* kCorpora[] = {"surface", "tbxray", "pnxray"};
/// 400 generated images per class; the 0.6 train split leaves a labeling
/// pool of 240 per class, 480 in all.
constexpr int kImagesPerClass = 400;
constexpr int kSetupRepeats = 3;

struct FitInputs {
  std::shared_ptr<goggles::features::FeatureExtractor> extractor;
  std::vector<goggles::eval::LabelingTask> tasks;
};

FitInputs SetUp(const Options& options, Tracer* tracer) {
  FitInputs inputs;
  ScopedSpan setup(tracer, "bench.setup");
  {
    ScopedSpan span(tracer, "features.load_backbone");
    inputs.extractor = LoadBackbone();
  }
  ScopedSpan span(tracer, "data.make_tasks");
  for (size_t c = 0; c < std::size(kCorpora); ++c) {
    goggles::eval::TaskSuiteConfig config;
    config.images_per_class = kImagesPerClass;
    config.seed = SubSeed(options.seed, 100 + c);
    auto tasks = goggles::eval::MakeTasks(kCorpora[c], config);
    tasks.status().Abort("MakeTasks");
    inputs.tasks.push_back(std::move((*tasks)[0]));
  }
  return inputs;
}

double TaskAccuracy(const goggles::eval::LabelingTask& task,
                    const std::vector<int>& hard) {
  return goggles::eval::AccuracyExcluding(hard, task.train.labels,
                                          task.dev_indices);
}

/// Scoring-GEMM flops of ScorePoolRowsInto, from the prepared shapes: per
/// layer, (N * area) position rows times every packed prototype, over C
/// channels, two flops per multiply-add.
double ScoreFlops(const goggles::PrototypeAffinitySource& source) {
  double flops = 0.0;
  for (const auto& layer : source.layers()) {
    double protos = 0.0;
    for (int count : layer.num_prototypes) protos += count;
    flops += 2.0 * static_cast<double>(layer.positions.size()) * layer.area *
             protos * layer.channels;
  }
  return flops;
}

/// Label through its public stages, one span per stage. Returns the hard
/// labels; fills the scoring flops.
std::vector<int> ReplayLabel(const FitInputs& inputs,
                             const goggles::eval::LabelingTask& task,
                             Tracer* tracer, double* score_flops,
                             goggles::Matrix* affinity_out) {
  const goggles::GogglesConfig config;
  const auto& images = task.train.images;
  const int64_t n = static_cast<int64_t>(images.size());
  {
    // The backbone taps alone, as a sibling: Prepare runs them again
    // inside, so Prepare's self time is prepare - pool_maps.
    ScopedSpan span(tracer, "features.pool_maps");
    inputs.extractor->PoolFeatureMaps(images).status().Abort("PoolFeatureMaps");
  }
  ScopedSpan label(tracer, "fit.label");
  goggles::AffinityLibrary library =
      goggles::BuildPrototypeAffinityLibrary(inputs.extractor, config.top_z);
  const int alpha = static_cast<int>(library.functions.size());
  {
    ScopedSpan span(tracer, "goggles.affinity.prepare");
    library.source->Prepare(images).Abort("Prepare");
  }
  goggles::Matrix affinity(n, alpha * n);
  {
    ScopedSpan span(tracer, "goggles.affinity.score");
    library.source->ScorePoolRowsInto(alpha, &affinity).Abort("Score");
  }
  *score_flops = ScoreFlops(*library.source);
  goggles::HierarchicalLabeler labeler(config.inference);
  goggles::Result<goggles::LabelingResult> result =
      goggles::Status::Internal("not run");
  {
    ScopedSpan span(tracer, "goggles.hierarchical.fit");
    result = labeler.Fit(affinity, task.dev_indices, task.dev_labels,
                         task.num_classes);
  }
  result.status().Abort("HierarchicalLabeler::Fit");
  *affinity_out = std::move(affinity);
  return result->hard_labels;
}

/// HierarchicalLabeler::Fit's components run one after another on the
/// calling thread (same configs and seeds), each under its own span.
void SerialComponents(const goggles::Matrix& affinity,
                      const goggles::eval::LabelingTask& task,
                      Tracer* tracer) {
  const goggles::HierarchicalConfig config;
  const int64_t n = affinity.rows();
  const int64_t alpha = affinity.cols() / n;
  const int k = task.num_classes;
  std::vector<goggles::Matrix> lps(static_cast<size_t>(alpha));
  for (int64_t f = 0; f < alpha; ++f) {
    goggles::Matrix block = affinity.Block(0, f * n, n, n);
    goggles::GmmConfig cfg = config.base;
    cfg.num_components = k;
    cfg.seed = config.base.seed + static_cast<uint64_t>(f) * 7919;
    goggles::DiagonalGmm gmm(cfg);
    {
      ScopedSpan span(tracer, "goggles.base_gmm.fit");
      gmm.Fit(block).Abort("DiagonalGmm::Fit");
    }
    goggles::Matrix proba = gmm.PredictProba(block).ValueOrDie();
    goggles::Result<std::vector<int>> mapping = goggles::Status::Internal("");
    {
      ScopedSpan span(tracer, "goggles.mapping");
      mapping = goggles::ClusterToClassMapping(proba, task.dev_indices,
                                               task.dev_labels, k);
    }
    lps[static_cast<size_t>(f)] =
        goggles::ApplyMapping(proba, mapping.ValueOrDie());
  }
  goggles::Matrix concat = goggles::OneHotConcatLabelPredictions(lps);
  goggles::BernoulliMixtureConfig ens_config = config.ensemble;
  ens_config.num_components = k;
  goggles::BernoulliMixture ensemble(ens_config);
  {
    ScopedSpan span(tracer, "goggles.ensemble.fit");
    ensemble.Fit(concat).Abort("BernoulliMixture::Fit");
  }
  goggles::Matrix gamma = ensemble.PredictProba(concat).ValueOrDie();
  ScopedSpan span(tracer, "goggles.mapping");
  goggles::ClusterToClassMapping(gamma, task.dev_indices, task.dev_labels, k)
      .status()
      .Abort("ClusterToClassMapping");
}

double SumMs(const Tracer& tracer, const std::string& name) {
  double total = 0.0;
  const auto durations = tracer.DurationsMs();
  auto it = durations.find(name);
  if (it == durations.end()) return 0.0;
  for (double d : it->second) total += d;
  return total;
}

}  // namespace

WorkloadResult RunFitPool(const Options& options, Tracer* tracer) {
  WorkloadResult result;
  // Set-up runs several times; the median is setup_s. The first repeat is
  // measured from the start of the run.
  std::vector<double> setup_s;
  FitInputs inputs;
  JsonValue setups = JsonValue::MakeArray();
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t start = r == 0 ? options.run_start_us : NowMicros();
    inputs = SetUp(options, tracer);
    setup_s.push_back(static_cast<double>(NowMicros() - start) / 1e6);
    setups.Append(JsonValue(setup_s.back()));
  }
  result.detail.Set("setup_repeats_s", std::move(setups));

  // Timed Label calls, whole rounds over the three tasks, until the next
  // round would overrun the budget (one round in a traced run). Reference
  // passes run before the first call and after every call.
  const int64_t budget_us = static_cast<int64_t>(options.seconds * 1e6);
  const int64_t loop_start = NowMicros();
  std::vector<double> label_ms;
  std::vector<double> cpu_ms_per_image, images_per_s;
  std::map<size_t, uint64_t> task_hash;
  std::map<size_t, double> task_accuracy;
  JsonValue calls = JsonValue::MakeArray();
  ReferenceLog reference(
      static_cast<int>(std::thread::hardware_concurrency()));
  reference.Measure();
  const int max_rounds = options.trace ? 1 : std::numeric_limits<int>::max();
  for (int round = 0; round < max_rounds; ++round) {
    const int64_t elapsed = NowMicros() - loop_start;
    if (round > 0 && elapsed + elapsed / round > budget_us) break;
    for (size_t t = 0; t < inputs.tasks.size(); ++t) {
      const auto& task = inputs.tasks[t];
      goggles::GogglesPipeline pipeline(inputs.extractor);
      ++result.attempted;
      const double cpu = SelfCpuSeconds();
      const int64_t start = NowMicros();
      const auto labels = pipeline.Label(task.train.images, task.dev_indices,
                                         task.dev_labels, task.num_classes);
      const double ms = static_cast<double>(NowMicros() - start) / 1e3;
      const double cpu_s = SelfCpuSeconds() - cpu;
      reference.Measure();
      if (!labels.ok()) {
        ++result.failed;
        std::fprintf(stderr, "fit_pool: Label failed on %s: %s\n",
                     task.task_name.c_str(),
                     labels.status().ToString().c_str());
        continue;
      }
      const uint64_t hash = HashLabels(labels->hard_labels);
      // Label is deterministic: every call on one task must agree.
      if (task_hash.count(t) != 0 && task_hash[t] != hash) {
        ++result.failed;
        std::fprintf(stderr, "fit_pool: %s labels changed between calls\n",
                     task.task_name.c_str());
      }
      task_hash[t] = hash;
      task_accuracy[t] = TaskAccuracy(task, labels->hard_labels);
      const double images = static_cast<double>(task.train.images.size());
      label_ms.push_back(ms);
      cpu_ms_per_image.push_back(1e3 * cpu_s / images);
      images_per_s.push_back(images / (ms / 1e3));
      JsonValue call = JsonValue::MakeObject();
      call.Set("task", JsonValue(task.task_name));
      call.Set("label_ms", JsonValue(ms));
      calls.Append(std::move(call));
    }
  }

  JsonValue tasks = JsonValue::MakeArray();
  std::vector<double> accuracies;
  for (size_t t = 0; t < inputs.tasks.size(); ++t) {
    JsonValue task = JsonValue::MakeObject();
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(task_hash[t]));
    task.Set("task", JsonValue(inputs.tasks[t].task_name));
    task.Set("pool_size",
             JsonValue(static_cast<int>(inputs.tasks[t].train.images.size())));
    task.Set("labels_hash", JsonValue(std::string(hash)));
    task.Set("accuracy", JsonValue(task_accuracy[t]));
    tasks.Append(std::move(task));
    accuracies.push_back(task_accuracy[t]);
    std::printf("fit_pool task %s pool %zu labels_hash %s accuracy %.4f\n",
                inputs.tasks[t].task_name.c_str(),
                inputs.tasks[t].train.images.size(), hash, task_accuracy[t]);
  }
  result.detail.Set("tasks", std::move(tasks));
  result.detail.Set("label_calls", std::move(calls));

  const double reference_s = reference.MedianSeconds();
  const TailValue p90 = TailPercentile(label_ms, 0.9);
  const TailValue p99 = TailPercentile(label_ms, 0.99);
  result.detail.Set("latency_p90_quantile", JsonValue(p90.q));
  result.detail.Set("latency_p99_quantile", JsonValue(p99.q));
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", SelfPeakRssMb(), "MB"},
      {"label_accuracy", Median(accuracies), "fraction"},
      {"images_per_ref", Median(images_per_s) * reference_s, "img/ref"},
  };
  result.info = {
      {"images_per_s", Median(images_per_s), "img/s"},
      {"cpu_ms_per_image", Median(cpu_ms_per_image), "ms"},
      {"reference_pass_ms", 1e3 * reference_s, "ms"},
      {"latency_p50_ms", Median(label_ms), "ms"},
      {"latency_p90_ms", p90.value, "ms"},
      {"latency_p99_ms", p99.value, "ms"},
  };
  if (!options.trace) return result;

  // Traced: replay Label through its stages on every task, then the
  // hierarchical model's components serially.
  std::vector<double> unaccounted;
  std::vector<double> gflops;
  for (size_t t = 0; t < inputs.tasks.size(); ++t) {
    const auto& task = inputs.tasks[t];
    double flops = 0.0;
    goggles::Matrix affinity;
    ++result.attempted;
    const std::vector<int> hard =
        ReplayLabel(inputs, task, tracer, &flops, &affinity);
    if (HashLabels(hard) != task_hash[t]) {
      ++result.failed;
      std::fprintf(stderr,
                   "fit_pool: staged replay disagrees with Label on %s\n",
                   task.task_name.c_str());
    }
    SerialComponents(affinity, task, tracer);
    const auto durations = tracer->DurationsMs();
    const double label = durations.at("fit.label").back();
    const double parts = durations.at("goggles.affinity.prepare").back() +
                         durations.at("goggles.affinity.score").back() +
                         durations.at("goggles.hierarchical.fit").back();
    unaccounted.push_back(1.0 - Ratio(parts, label));
    gflops.push_back(Ratio(
        flops / 1e9, durations.at("goggles.affinity.score").back() / 1e3));
  }
  const double tasks_run = static_cast<double>(inputs.tasks.size());
  const double traced_label = SpanMedianMs(*tracer, "fit.label");
  const double untraced_label = Median(label_ms);
  FinishPerLayer(
      {
          {"data.make_tasks_s", SpanMedianMs(*tracer, "data.make_tasks") / 1e3},
          {"features.pool_maps_ms",
           SpanMedianMs(*tracer, "features.pool_maps")},
          {"goggles.affinity.prepare_ms",
           SpanMedianMs(*tracer, "goggles.affinity.prepare")},
          {"goggles.affinity.prepare_self_ms",
           std::max(0.0, SpanMedianMs(*tracer, "goggles.affinity.prepare") -
                             SpanMedianMs(*tracer, "features.pool_maps"))},
          {"goggles.affinity.score_ms",
           SpanMedianMs(*tracer, "goggles.affinity.score")},
          {"goggles.affinity.score_gflops", Median(gflops)},
          {"goggles.hierarchical.fit_ms",
           SpanMedianMs(*tracer, "goggles.hierarchical.fit")},
          {"goggles.base_gmm.fit_ms",
           SumMs(*tracer, "goggles.base_gmm.fit") / tasks_run},
          {"goggles.ensemble.fit_ms",
           SumMs(*tracer, "goggles.ensemble.fit") / tasks_run},
          {"goggles.mapping.ms", SumMs(*tracer, "goggles.mapping") / tasks_run},
          {"fit.unaccounted_share", Median(unaccounted)},
          {"bench.trace_overhead_ms", traced_label - untraced_label},
          {"bench.trace_overhead_share",
           Ratio(traced_label - untraced_label, untraced_label)},
      },
      &result);
  return result;
}

}  // namespace perfbench
