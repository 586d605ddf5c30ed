/// \file serve_workload.cc
/// \brief serve_unique, serve_hot and serve_multitask: the built
/// goggles_serve binary as a child process over stdin/stdout pipes, driven
/// by an open loop of `label` requests.
///
/// The child runs with every execution-mode flag at its default; the
/// workloads pass only --artifact, --artifact-dir and --task-budget-mb.
/// Every answered label is checked against in-process
/// Session::LabelBatch on the same image bytes.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include "eval/tasks.h"
#include "goggles/affinity.h"
#include "open_loop.h"
#include "reference.h"
#include "serve/artifact.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/session.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using goggles::serve::JsonValue;
namespace fs = std::filesystem;

namespace {

/// One serve workload's shape. Rates are absolute request rates; the
/// nominal rate sits near half the knee measured on a 4-core AVX-512
/// host, and the ladder climbs from there until a rung misses the limit.
struct ServeSpec {
  const char* name;
  int num_tasks;         ///< 1 = --artifact; more = --artifact-dir
  int hot_images;        ///< 0 = every request a distinct image
  int task_budget_mb;    ///< registry budget (multi-task only)
  double nominal_rps;
  std::vector<double> ladder_rps;
};

const ServeSpec kSpecs[] = {
    {"serve_unique", 1, 0, 0, 80,
     {130, 150, 170, 195, 225, 260, 300, 345, 400}},
    {"serve_hot", 1, 8, 0, 90, {130, 150, 170, 195, 225, 260, 300, 345, 400}},
    {"serve_multitask", 8, 0, 10, 70,
     {120, 140, 160, 185, 210, 240, 275, 315, 360}},
};

constexpr const char* kCorpora[] = {"surface", "tbxray", "pnxray"};
/// Artifact pools: 90 generated images per class -> 108-image pools.
constexpr int kPoolImagesPerClass = 90;
/// Distinct held-out queries per task: 512 for serve_unique (far beyond
/// the extract stage's 8-request dedup window), 160 for serve_hot (20
/// hot sets of 8, one per phase), 64 per task for serve_multitask.
constexpr int kUniqueQueryImagesPerClass = 256;
constexpr int kHotQueryImagesPerClass = 80;
constexpr int kTaskQueryImagesPerClass = 32;
constexpr int kHotSets = 20;
/// Phase slots (seed salts, and hot sets modulo kHotSets): windows count
/// from 0, saturation bursts from kSlotBursts, ladder rungs from
/// kSlotRungs.
constexpr int kSlotBursts = 6;
constexpr int kSlotRungs = 11;
constexpr int kSetupRepeats = 3;
constexpr int kWarmupRequests = 16;
/// The latency limit a ladder rung must meet at its tail percentile.
constexpr double kLatencyLimitMs = 100.0;
/// A phase is flagged invalid when the generator itself ran this late at
/// its p99 (it, not the server, would have set the pace).
constexpr double kGeneratorLateLimitMs = 5.0;
/// A phase is clean when the generator's p99 lateness stayed under
/// kCleanLateMs (about 0.1 ms on a quiet host) and the hypervisor stole
/// under kNoisyStealCores of CPU.
constexpr double kCleanLateMs = 0.5;
/// serve_multitask republishes one task's artifact every this many
/// requests.
constexpr int kRepublishEvery = 100;
/// serve_multitask's task popularity: P(task t) ~ (t + 1)^-1.5, so the four
/// tasks the budget keeps resident take ~87% of requests.
constexpr double kZipfExponent = 1.5;
constexpr int64_t kDrainTimeoutUs = 20'000'000;
/// Shares of --seconds: the nominal phase, and each ladder rung.
constexpr double kNominalShare = 0.3;
constexpr double kRungShare = 0.06;
/// Nominal-rate windows per untraced run (each followed by a saturation
/// burst), and ladder rungs between them.
constexpr int kNominalWindows = 5;
constexpr int kRungsPerWindow = 2;
/// The saturation burst: requests due at this rate (far above capacity),
/// as many as kSaturationLoad x the nominal rate would send in
/// kSaturationShare of --seconds.
constexpr double kSaturationRps = 100000.0;
constexpr double kSaturationShare = 0.09;
constexpr double kSaturationLoad = 4.0;

const ServeSpec& FindSpec(const std::string& name) {
  for (const ServeSpec& spec : kSpecs) {
    if (name == spec.name) return spec;
  }
  std::fprintf(stderr, "unknown workload %s\n", name.c_str());
  std::exit(2);
}

struct ServeTask {
  std::string name;
  std::string artifact;
  std::vector<goggles::data::Image> queries;
  std::vector<int> truth;
  std::vector<std::string> lines;  ///< encoded request line per query
  std::shared_ptr<const goggles::serve::Session> session;  ///< fitted
};

/// One request of a phase: which task and which of its queries.
struct Pick {
  int task = 0;
  int image = 0;
};

std::string ImageJson(const goggles::data::Image& img) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("channels", JsonValue(img.channels));
  obj.Set("height", JsonValue(img.height));
  obj.Set("width", JsonValue(img.width));
  JsonValue pixels = JsonValue::MakeArray();
  for (float v : img.pixels) pixels.Append(JsonValue(static_cast<double>(v)));
  obj.Set("pixels", std::move(pixels));
  return obj.Dump();
}

std::string RequestLine(const ServeTask& task, size_t image, bool routed) {
  std::string line = "{\"op\":\"label\",";
  if (routed) line += "\"task\":\"" + task.name + "\",";
  line += "\"image\":" + ImageJson(task.queries[image]) + "}\n";
  return line;
}

struct ServeSetup {
  std::shared_ptr<goggles::features::FeatureExtractor> extractor;
  std::vector<ServeTask> tasks;
  std::string dir;
  std::unique_ptr<ChildProcess> child;
  int64_t requests_sent = 0;  ///< over all phases so far
  int64_t next_publish = kRepublishEvery;
  int64_t publishes = 0;
};

bool WaitReady(const std::string& stderr_path, int64_t timeout_us) {
  const int64_t deadline = NowMicros() + timeout_us;
  while (NowMicros() < deadline) {
    std::ifstream in(stderr_path);
    std::stringstream text;
    text << in.rdbuf();
    if (text.str().find("\"ready\":true") != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// One closed-loop request/response exchange (warm-up and stats).
bool Exchange(ChildProcess* child, const std::string& line,
              std::string* response) {
  const int64_t deadline = NowMicros() + kDrainTimeoutUs;
  return child->WriteAll(line, deadline) && child->ReadLine(deadline, response);
}

ServeSetup SetUp(const Options& options, const ServeSpec& spec, int repeat,
                 Tracer* tracer) {
  ServeSetup setup;
  ScopedSpan span(tracer, "bench.setup");
  setup.extractor = LoadBackbone();
  setup.dir = options.work_dir + "/setup" + std::to_string(repeat);
  fs::create_directories(setup.dir);
  const bool routed = spec.num_tasks > 1;
  for (int t = 0; t < spec.num_tasks; ++t) {
    ServeTask task;
    const char* corpus = kCorpora[t % std::size(kCorpora)];
    goggles::eval::TaskSuiteConfig pool_config;
    goggles::eval::TaskSuiteConfig query_config;
    {
      const int make_span = tracer->Begin("data.make_tasks");
      pool_config.images_per_class = kPoolImagesPerClass;
      pool_config.seed = SubSeed(options.seed, 200 + t);
      auto pool = goggles::eval::MakeTasks(corpus, pool_config);
      pool.status().Abort("MakeTasks");
      query_config.images_per_class =
          routed ? kTaskQueryImagesPerClass
                 : (spec.hot_images > 0 ? kHotQueryImagesPerClass
                                        : kUniqueQueryImagesPerClass);
      query_config.seed = SubSeed(options.seed, 300 + t);
      auto held_out = goggles::eval::MakeTasks(corpus, query_config);
      held_out.status().Abort("MakeTasks");
      tracer->End(make_span);
      // Every image of the second corpus is held out from the pool.
      for (const auto* split : {&(*held_out)[0].train, &(*held_out)[0].test}) {
        task.queries.insert(task.queries.end(), split->images.begin(),
                            split->images.end());
        task.truth.insert(task.truth.end(), split->labels.begin(),
                          split->labels.end());
      }
      // Shuffle so consecutive requests mix classes.
      std::vector<size_t> order(task.queries.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(),
                   std::mt19937_64(SubSeed(options.seed, 400 + t)));
      std::vector<goggles::data::Image> queries;
      std::vector<int> truth;
      for (size_t i : order) {
        queries.push_back(std::move(task.queries[i]));
        truth.push_back(task.truth[i]);
      }
      task.queries = std::move(queries);
      task.truth = std::move(truth);
      task.name = "t" + std::to_string(t);
      {
        ScopedSpan fit(tracer, "serve.session.fit");
        const auto& pt = (*pool)[0];
        auto session = goggles::serve::Session::Fit(
            setup.extractor, pt.train.images, pt.dev_indices, pt.dev_labels,
            pt.num_classes);
        session.status().Abort("Session::Fit");
        task.session = std::make_shared<const goggles::serve::Session>(
            std::move(*session));
      }
    }
    task.artifact = setup.dir + "/" + task.name + ".ggsa";
    {
      ScopedSpan save(tracer, "serve.artifact.save");
      task.session->Save(task.artifact).Abort("Session::Save");
    }
    {
      ScopedSpan encode(tracer, "bench.encode_requests");
      for (size_t i = 0; i < task.queries.size(); ++i) {
        task.lines.push_back(RequestLine(task, i, routed));
      }
    }
    setup.tasks.push_back(std::move(task));
  }

  std::vector<std::string> argv = {options.serve_binary};
  if (routed) {
    argv.insert(argv.end(), {"--artifact-dir", setup.dir, "--task-budget-mb",
                             std::to_string(spec.task_budget_mb)});
  } else {
    argv.insert(argv.end(), {"--artifact", setup.tasks[0].artifact});
  }
  ScopedSpan start(tracer, "serve.child.start");
  setup.child = std::make_unique<ChildProcess>();
  const std::string stderr_path = setup.dir + "/serve.stderr";
  std::string error;
  if (!setup.child->Start(argv, stderr_path, &error) ||
      !WaitReady(stderr_path, 60'000'000)) {
    std::fprintf(stderr, "goggles_serve did not start: %s\n", error.c_str());
    std::exit(1);
  }
  for (int i = 0; i < kWarmupRequests; ++i) {
    const ServeTask& task = setup.tasks[static_cast<size_t>(i) %
                                        setup.tasks.size()];
    std::string response;
    if (!Exchange(setup.child.get(), task.lines[static_cast<size_t>(i) %
                                                task.lines.size()],
                  &response)) {
      std::fprintf(stderr, "goggles_serve warm-up request failed\n");
      std::exit(1);
    }
  }
  return setup;
}

/// Seeded request picks: serve_unique walks the shuffled query set (no
/// two requests within 512 share an image), serve_hot draws uniformly
/// from the phase's hot set, serve_multitask draws a task from a Zipf
/// distribution and then an image uniformly.
std::vector<Pick> MakePicks(const ServeSpec& spec, const ServeSetup& setup,
                            int count, int hot_set, uint64_t seed) {
  // serve_hot: each phase has its own hot set of consecutive images.
  const size_t hot_base =
      static_cast<size_t>(hot_set) * static_cast<size_t>(spec.hot_images);
  std::mt19937_64 rng(seed);
  std::vector<double> weights;
  for (int t = 0; t < spec.num_tasks; ++t) {
    weights.push_back(std::pow(t + 1.0, -kZipfExponent));
  }
  std::discrete_distribution<int> task_dist(weights.begin(), weights.end());
  std::vector<Pick> picks(static_cast<size_t>(count));
  const size_t offset = rng() % setup.tasks[0].queries.size();
  for (int i = 0; i < count; ++i) {
    Pick& p = picks[static_cast<size_t>(i)];
    p.task = spec.num_tasks > 1 ? task_dist(rng) : 0;
    const size_t n = setup.tasks[static_cast<size_t>(p.task)].queries.size();
    if (spec.hot_images > 0) {
      p.image = static_cast<int>(
          (hot_base + rng() % static_cast<size_t>(spec.hot_images)) % n);
    } else if (spec.num_tasks == 1) {
      p.image = static_cast<int>((offset + static_cast<size_t>(i)) % n);
    } else {
      p.image = static_cast<int>(rng() % n);
    }
  }
  return picks;
}

/// Summary of one open-loop phase.
struct PhaseResult {
  std::string name;
  double rate = 0.0;
  std::vector<Pick> picks;
  std::vector<RequestTiming> timings;
  int64_t sent = 0, succeeded = 0, failed = 0;
  std::vector<double> latency_ms;  ///< failures count as the drain timeout
  double p50_ms = 0.0;
  TailValue tail;
  double late_p99_ms = 0.0;
  double achieved_rps = 0.0;
  double completion_rps = 0.0;
  double steal_cores = 0.0;  ///< CPU time the hypervisor took, in cores
  double server_cpu_s = 0.0;  ///< CPU time goggles_serve used
  bool backlog_growing = false;
  bool valid = true;
  bool clean = true;  ///< no sign of interference from the host
  bool meets_limit = false;
};

/// Runs one open-loop phase of `rate * seconds` seeded picks, or of
/// `fixed_picks` when given.
PhaseResult RunPhase(const std::string& name, const ServeSpec& spec,
                     ServeSetup* setup, double rate, double seconds,
                     int hot_set, uint64_t seed, Tracer* tracer,
                     const std::vector<Pick>* fixed_picks = nullptr) {
  PhaseResult phase;
  phase.name = name;
  phase.rate = rate;
  phase.picks = fixed_picks != nullptr
                    ? *fixed_picks
                    : MakePicks(spec, *setup,
                                std::max(1, static_cast<int>(rate * seconds)),
                                hot_set, SubSeed(seed, 1));
  const int count = static_cast<int>(phase.picks.size());
  const std::vector<int64_t> offsets =
      PoissonSchedule(rate, count, SubSeed(seed, 2));
  ChildProcess* child = setup->child.get();

  // serve_multitask: a publisher republishes task t1's artifact every
  // kRepublishEvery requests, which makes the server hot-reload it.
  std::atomic<int64_t> sent_count{0};
  std::atomic<bool> done{false};
  std::thread publisher;
  if (spec.num_tasks > 1) {
    publisher = std::thread([&] {
      const ServeTask& task = setup->tasks[1];
      while (!done.load()) {
        if (setup->requests_sent + sent_count.load() < setup->next_publish) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        ScopedSpan span(tracer, "serve.artifact.save_atomic");
        task.session->SaveAtomic(task.artifact).Abort("SaveAtomic");
        setup->next_publish += kRepublishEvery;
        ++setup->publishes;
      }
    });
  }

  const double steal_start = StealSeconds();
  const double cpu_start = child->CpuSeconds();
  const int phase_span = tracer->Begin("bench.phase." + name);
  const int64_t start = NowMicros() + 2000;
  const auto send = [&](size_t i) {
    const Pick& p = phase.picks[i];
    const bool ok = child->WriteAll(
        setup->tasks[static_cast<size_t>(p.task)]
            .lines[static_cast<size_t>(p.image)],
        NowMicros() + kDrainTimeoutUs);
    sent_count.fetch_add(1);
    return ok;
  };
  const auto receive = [&](size_t, int64_t deadline, RequestTiming* t) {
    std::string line;
    if (!child->ReadLine(deadline, &line)) return false;
    auto response = JsonValue::Parse(line);
    const JsonValue* ok = response.ok() ? response->Find("ok") : nullptr;
    const JsonValue* label = response.ok() ? response->Find("label") : nullptr;
    t->ok = ok != nullptr && ok->is_bool() && ok->bool_value() &&
            label != nullptr && label->is_number();
    if (t->ok) t->label = static_cast<int>(label->number());
    return true;
  };
  phase.timings = RunOpenLoop(offsets, start, send, receive, kDrainTimeoutUs);
  done.store(true);
  if (publisher.joinable()) publisher.join();
  setup->requests_sent += count;
  tracer->End(phase_span);
  phase.server_cpu_s = child->CpuSeconds() - cpu_start;
  phase.steal_cores = (StealSeconds() - steal_start) /
                      (static_cast<double>(NowMicros() - start) / 1e6);

  std::vector<double> late_ms;
  int64_t last_done = start;
  for (size_t i = 0; i < phase.timings.size(); ++i) {
    const RequestTiming& t = phase.timings[i];
    ++phase.sent;
    late_ms.push_back(static_cast<double>(t.generator_late_us) / 1e3);
    if (t.answered && t.ok) {
      ++phase.succeeded;
      phase.latency_ms.push_back(t.latency_ms());
      last_done = std::max(last_done, t.done_us);
      if (tracer->enabled()) {
        tracer->Record("serve.request", t.due_us, t.done_us, phase_span,
                       static_cast<int64_t>(i));
      }
    } else {
      ++phase.failed;
      phase.latency_ms.push_back(static_cast<double>(kDrainTimeoutUs) / 1e3);
    }
  }
  phase.p50_ms = Median(phase.latency_ms);
  phase.tail = TailPercentile(phase.latency_ms, 0.99);
  phase.late_p99_ms = Percentile(late_ms, 0.99);
  phase.achieved_rps = Ratio(
      static_cast<double>(phase.succeeded),
      static_cast<double>(last_done - phase.timings.front().due_us) / 1e6);
  // A growing backlog shows as the last quarter's median latency drifting
  // above the first quarter's.
  const size_t quarter = phase.latency_ms.size() / 4;
  if (quarter > 0) {
    const std::vector<double> first(phase.latency_ms.begin(),
                                    phase.latency_ms.begin() + quarter);
    const std::vector<double> last(phase.latency_ms.end() - quarter,
                                   phase.latency_ms.end());
    phase.backlog_growing = Median(last) - Median(first) > kLatencyLimitMs / 2;
  }
  // Throughput over the span of completions (from the first answer to the
  // last), which is the server's capacity when the phase overloads it.
  int64_t first_done = 0;
  for (const RequestTiming& t : phase.timings) {
    if (t.answered && (first_done == 0 || t.done_us < first_done)) {
      first_done = t.done_us;
    }
  }
  if (phase.succeeded > 1) {
    phase.completion_rps =
        Ratio(static_cast<double>(phase.succeeded - 1),
              static_cast<double>(last_done - first_done) / 1e6);
  }
  phase.valid = rate >= kSaturationRps ||
                phase.late_p99_ms <= kGeneratorLateLimitMs;
  // Under saturation the generator blocks on a full pipe, so only the
  // hypervisor's steal time tells whether the host interfered.
  phase.clean = phase.steal_cores <= kNoisyStealCores &&
                (rate >= kSaturationRps || phase.late_p99_ms <= kCleanLateMs);
  phase.meets_limit = phase.failed == 0 &&
                      phase.tail.value <= kLatencyLimitMs &&
                      !phase.backlog_growing;
  if (!phase.valid) {
    std::fprintf(stderr,
                 "WARNING: phase %s invalid: generator p99 lateness %.3f ms "
                 "> %.1f ms, the generator set the pace\n",
                 name.c_str(), phase.late_p99_ms, kGeneratorLateLimitMs);
  }
  return phase;
}

/// The sustainable rate: where the tail latency crosses the limit,
/// interpolated linearly between the last rung that met the limit and the
/// rung that missed it (after its retry). The nominal windows form the
/// ladder's base rung, with their median tail. 0 when a nominal window
/// missed the limit; the top rung's achieved rate when no rung missed.
double MaxRate(double nominal_rps, double nominal_tail_ms,
               bool nominal_meets_limit,
               const std::vector<const PhaseResult*>& rungs) {
  if (!nominal_meets_limit) return 0.0;
  double pass_rate = nominal_rps;
  double pass_tail = nominal_tail_ms;
  for (const PhaseResult* rung : rungs) {
    if (rung->meets_limit) {
      pass_rate = rung->rate;
      pass_tail = rung->tail.value;
      continue;
    }
    double frac = 0.0;
    if (rung->failed == 0 && rung->tail.value > pass_tail) {
      frac = std::clamp((kLatencyLimitMs - pass_tail) /
                            (rung->tail.value - pass_tail),
                        0.0, 1.0);
    }
    return pass_rate + frac * (rung->rate - pass_rate);
  }
  return rungs.empty() ? nominal_rps : rungs.back()->achieved_rps;
}

JsonValue PhaseJson(const PhaseResult& phase) {
  JsonValue j = JsonValue::MakeObject();
  j.Set("phase", JsonValue(phase.name));
  j.Set("rate_rps", JsonValue(phase.rate));
  j.Set("sent", JsonValue(phase.sent));
  j.Set("succeeded", JsonValue(phase.succeeded));
  j.Set("failed", JsonValue(phase.failed));
  j.Set("latency_p50_ms", JsonValue(phase.p50_ms));
  j.Set("latency_tail_ms", JsonValue(phase.tail.value));
  j.Set("latency_tail_quantile", JsonValue(phase.tail.q));
  j.Set("achieved_rps", JsonValue(phase.achieved_rps));
  j.Set("completion_rps", JsonValue(phase.completion_rps));
  j.Set("generator_late_ms_p99", JsonValue(phase.late_p99_ms));
  j.Set("backlog_growing", JsonValue(phase.backlog_growing));
  j.Set("meets_limit", JsonValue(phase.meets_limit));
  j.Set("valid", JsonValue(phase.valid));
  j.Set("clean", JsonValue(phase.clean));
  j.Set("steal_cores", JsonValue(phase.steal_cores));
  j.Set("server_cpu_ms_per_request",
        JsonValue(1e3 * Ratio(phase.server_cpu_s,
                              static_cast<double>(phase.succeeded))));
  return j;
}

double Number(const JsonValue* v) {
  return v != nullptr && v->is_number() ? v->number() : 0.0;
}

/// In-process calls into each serve layer's public functions on the
/// workload's own inputs, one span per call.
void ProbeLayers(const ServeSpec& spec, const ServeSetup& setup,
                 const Options& options, Tracer* tracer,
                 std::vector<std::pair<std::string, double>>* values) {
  const ServeTask& task = setup.tasks[0];
  const auto& session = *task.session;
  // Request i carries query i % kImages; the lines have no "task", since
  // the in-process Service serves one session.
  constexpr int kReps = 48;
  const size_t kImages = std::min<size_t>(task.queries.size(), 32);
  std::vector<std::string> lines;
  for (size_t i = 0; i < kImages; ++i) {
    lines.push_back(RequestLine(task, i, /*routed=*/false));
    lines.back().pop_back();  // newline
  }
  const auto image = [&](size_t i) {
    return std::vector<goggles::data::Image>{task.queries[i % kImages]};
  };
  // BuildQueryRows' two halves go through a source restored from the same
  // artifact the server loaded.
  goggles::serve::Artifact artifact =
      goggles::serve::Artifact::Load(task.artifact).ValueOrDie();
  goggles::PrototypeAffinitySource source(setup.extractor, artifact.top_z);
  source.Restore(std::move(artifact.source_layers),
                 static_cast<int>(artifact.model.pool_size),
                 artifact.pool_fingerprint)
      .Abort("Restore");
  goggles::serve::Service service(task.session);

  // The serial request path, one request at a time: the whole of
  // Service::HandleLine, then its parts called one by one on the same
  // request, so the parts and the whole see the same caches.
  std::map<std::string, std::vector<double>> ms;
  std::vector<double> unaccounted;
  const auto timed = [&](const std::string& name, auto fn) {
    ScopedSpan span(tracer, name);
    const int64_t start = NowMicros();
    fn();
    const double elapsed = static_cast<double>(NowMicros() - start) / 1e3;
    ms[name].push_back(elapsed);
    return elapsed;
  };
  size_t encoded_bytes = 0;
  for (size_t i = 0; i < kReps; ++i) {
    const std::string& line = lines[i % kImages];
    const double whole = timed("serve.service.handle_line", [&] {
      if (service.HandleLine(line).find("\"ok\":true") == std::string::npos) {
        goggles::Status::Internal("HandleLine answered an error").Abort();
      }
    });
    goggles::Matrix rows;
    goggles::LabelingResult labeled;
    const double parts =
        timed("serve.json.parse", [&] {
          JsonValue::Parse(line).status().Abort("Parse");
        }) +
        timed("serve.session.build_rows_b1", [&] {
          rows = session.BuildQueryRows(image(i)).ValueOrDie();
        }) +
        timed("serve.session.infer_rows_b1", [&] {
          labeled = session.InferRows(rows).ValueOrDie();
        }) +
        timed("serve.json.encode", [&] {
          JsonValue response = JsonValue::MakeObject();
          response.Set("ok", JsonValue(true));
          response.Set("label", JsonValue(labeled.hard_labels[0]));
          JsonValue soft = JsonValue::MakeArray();
          for (int64_t k = 0; k < labeled.soft_labels.cols(); ++k) {
            soft.Append(JsonValue(labeled.soft_labels(0, k)));
          }
          response.Set("soft", std::move(soft));
          encoded_bytes += response.Dump().size();
        });
    unaccounted.push_back(1.0 - Ratio(parts, whole));
    std::vector<goggles::PrototypeAffinitySource::QueryFeatures> features;
    timed("features.query_extract", [&] {
      features = source.ExtractQueryFeatures(image(i)).ValueOrDie();
    });
    timed("goggles.affinity.query_score", [&] {
      source.ScoreQueryRowsBatched(features,
                                   static_cast<int>(session.num_functions()))
          .status()
          .Abort("ScoreQueryRowsBatched");
    });
  }
  if (encoded_bytes == 0) goggles::Status::Internal("empty response").Abort();
  for (size_t i = 0; i < kReps / 4; ++i) {
    std::vector<goggles::data::Image> batch;
    for (size_t k = 0; k < 8; ++k) batch.push_back(image(8 * i + k)[0]);
    goggles::Matrix rows;
    timed("serve.session.build_rows_b8", [&] {
      rows = session.BuildQueryRows(batch).ValueOrDie();
    });
    timed("serve.session.infer_rows_b8", [&] {
      session.InferRows(rows).status().Abort("InferRows");
    });
  }
  // The artifact layer: load and crash-safe publish of this workload's
  // artifact (the publish goes to a private path).
  const std::string publish_path = options.work_dir + "/probe_publish.ggsa";
  for (int i = 0; i < 8; ++i) {
    timed("serve.artifact.load", [&] {
      goggles::serve::Session::Load(task.artifact, setup.extractor)
          .status()
          .Abort("Load");
    });
    timed("serve.artifact.save_atomic", [&] {
      session.SaveAtomic(publish_path).Abort("SaveAtomic");
    });
  }
  const auto median = [&](const char* name, double scale) {
    return scale * Median(ms[name]);
  };
  values->insert(values->end(), {
      {"serve.service.handle_line_ms", median("serve.service.handle_line", 1)},
      {"serve.json.parse_us", median("serve.json.parse", 1e3)},
      {"serve.json.encode_us", median("serve.json.encode", 1e3)},
      {"serve.session.build_rows_ms_b1",
       median("serve.session.build_rows_b1", 1)},
      {"serve.session.build_rows_ms_b8",
       median("serve.session.build_rows_b8", 1.0 / 8)},
      {"features.query_extract_ms", median("features.query_extract", 1)},
      {"goggles.affinity.query_score_ms",
       median("goggles.affinity.query_score", 1)},
      {"serve.session.infer_rows_us_b1",
       median("serve.session.infer_rows_b1", 1e3)},
      {"serve.session.infer_rows_us_b8",
       median("serve.session.infer_rows_b8", 1e3 / 8)},
      {"serve.unaccounted_share", Median(unaccounted)},
      {"serve.session.resident_bytes",
       static_cast<double>(session.ApproxMemoryBytes())},
      {"serve.artifact.load_ms", median("serve.artifact.load", 1)},
      {"serve.artifact.save_atomic_ms",
       median("serve.artifact.save_atomic", 1)},
  });
  if (spec.num_tasks == 1) return;

  // The registry, in process, on the run's artifact directory with the
  // same budget: a cold miss for every task, then hits on a resident one.
  goggles::serve::RegistryConfig config;
  config.artifact_dir = setup.dir;
  config.memory_budget_bytes = static_cast<uint64_t>(spec.task_budget_mb)
                               << 20;
  goggles::serve::SessionRegistry registry(setup.extractor, config);
  for (const ServeTask& t : setup.tasks) {
    timed("serve.registry.acquire_miss", [&] {
      registry.Acquire(t.name).status().Abort("Acquire");
    });
  }
  for (int i = 0; i < 200; ++i) {
    timed("serve.registry.acquire_hit", [&] {
      registry.Acquire(setup.tasks.back().name).status().Abort("Acquire");
    });
  }
  values->emplace_back("serve.registry.acquire_miss_ms",
                       median("serve.registry.acquire_miss", 1));
  values->emplace_back("serve.registry.acquire_hit_us",
                       median("serve.registry.acquire_hit", 1e3));
}

}  // namespace

WorkloadResult RunServe(const Options& options, Tracer* tracer) {
  const ServeSpec& spec = FindSpec(options.workload);
  WorkloadResult result;

  std::vector<double> setup_s;
  ServeSetup setup;
  JsonValue setups = JsonValue::MakeArray();
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (setup.child != nullptr) setup.child->Finish(10'000'000, nullptr);
    const int64_t start = r == 0 ? options.run_start_us : NowMicros();
    setup = SetUp(options, spec, r, tracer);
    setup_s.push_back(static_cast<double>(NowMicros() - start) / 1e6);
    setups.Append(JsonValue(setup_s.back()));
  }
  result.detail.Set("setup_repeats_s", std::move(setups));

  // The nominal rate runs as windows spread over the whole run,
  // interleaved with the ladder's rungs and five saturation bursts, so
  // that noise from the host lands in some phases only; latency is the
  // median over the windows and capacity the median burst. A rung that
  // misses the limit is retried once before the ladder stops. Traced runs
  // skip the ladder, alternate untraced and traced windows for the
  // tracing overhead, and end with a single burst.
  Tracer off(false);
  std::vector<PhaseResult> phases;
  std::vector<size_t> nominal;  // the windows, indices into phases
  std::vector<size_t> rungs;    // the deciding attempt of each rung
  std::vector<double> bursts;        // saturation completion rates
  std::vector<double> burst_cpu_ms;  // server CPU ms per image in bursts
  ReferenceLog reference(
      static_cast<int>(std::thread::hardware_concurrency()));
  // `slot` numbers the phase within the run: it salts the seed, and
  // serve_hot uses it as the phase's hot set.
  const auto run_phase = [&](const std::string& name, double rate,
                             double seconds, int slot, Tracer* t) {
    const uint64_t seed = SubSeed(options.seed, static_cast<uint64_t>(slot));
    phases.push_back(RunPhase(name, spec, &setup, rate, seconds,
                              slot % kHotSets, seed, t));
    return phases.size() - 1;
  };
  size_t rung = 0;
  bool retried = false;
  bool ladder_done = options.trace;
  const auto run_rung = [&] {
    const size_t i = run_phase(
        "ladder_" + std::to_string(rung) + (retried ? "_retry" : ""),
        spec.ladder_rps[rung], kRungShare * options.seconds,
        kSlotRungs + 2 * static_cast<int>(rung) + (retried ? 1 : 0), tracer);
    if (phases[i].meets_limit) {
      rungs.push_back(i);
      ++rung;
      retried = false;
      ladder_done = rung == spec.ladder_rps.size();
    } else if (!retried) {
      retried = true;
    } else {
      rungs.push_back(i);
      ladder_done = true;
    }
  };
  // Saturation: a burst far above any rung; the completion rate while the
  // server works through the queue is its capacity. Reference passes run
  // right before and after it, while the server is idle.
  const auto run_burst = [&](int b) {
    const double seconds = kSaturationShare * options.seconds *
                           kSaturationLoad * spec.nominal_rps / kSaturationRps;
    reference.Measure();
    const size_t i = run_phase("saturation_" + std::to_string(b),
                               kSaturationRps, seconds, kSlotBursts + b,
                               tracer);
    reference.Measure();
    bursts.push_back(phases[i].completion_rps);
    burst_cpu_ms.push_back(
        1e3 * Ratio(phases[i].server_cpu_s,
                    static_cast<double>(phases[i].succeeded)));
  };
  const int windows = options.trace ? kNominalWindows + 1 : kNominalWindows;
  const double window_s = kNominalShare * options.seconds / windows;
  for (int w = 0; w < windows; ++w) {
    const bool traced = options.trace && w % 2 == 1;
    nominal.push_back(run_phase(
        std::string(options.trace ? (traced ? "traced_" : "untraced_")
                                  : "nominal_") +
            std::to_string(w),
        spec.nominal_rps, window_s, w,
        options.trace && !traced ? &off : tracer));
    if (options.trace) continue;
    run_burst(w);
    for (int k = 0; k < kRungsPerWindow && !ladder_done; ++k) run_rung();
  }
  while (!ladder_done) run_rung();
  // A traced run ends with one burst, so that the server's batching and
  // backpressure counters in the stats op have seen saturation.
  if (options.trace) run_burst(0);

  std::string stats_line;
  Exchange(setup.child.get(), "{\"op\":\"stats\"}\n", &stats_line);
  // Accuracy: one request for every distinct query of every task, after
  // the stats op so the measured load alone sets the server's counters.
  std::vector<Pick> every_query;
  for (size_t t = 0; t < setup.tasks.size(); ++t) {
    for (size_t i = 0; i < setup.tasks[t].queries.size(); ++i) {
      every_query.push_back({static_cast<int>(t), static_cast<int>(i)});
    }
  }
  const size_t sweep = phases.size();
  phases.push_back(RunPhase("accuracy_sweep", spec, &setup, kSaturationRps,
                            0.0, 0, SubSeed(options.seed, 99), &off,
                            &every_query));
  long max_rss_kb = 0;
  const int exit_code = setup.child->Finish(30'000'000, &max_rss_kb);
  if (exit_code != 0) {
    ++result.failed;
    std::fprintf(stderr, "goggles_serve exited with %d\n", exit_code);
  }

  // Correctness: every answered label must equal in-process
  // Session::LabelBatch on the same image bytes.
  std::map<std::pair<int, int>, int> expected;
  for (const PhaseResult& phase : phases) {
    for (const Pick& p : phase.picks) expected[{p.task, p.image}] = -1;
  }
  for (size_t t = 0; t < setup.tasks.size(); ++t) {
    std::vector<int> ids;
    for (const auto& [key, label] : expected) {
      if (key.first == static_cast<int>(t)) ids.push_back(key.second);
    }
    const auto session = goggles::serve::Session::Load(
        setup.tasks[t].artifact, setup.extractor);
    session.status().Abort("Session::Load");
    for (size_t begin = 0; begin < ids.size(); begin += 32) {
      std::vector<goggles::data::Image> batch;
      const size_t end = std::min(ids.size(), begin + 32);
      for (size_t i = begin; i < end; ++i) {
        batch.push_back(setup.tasks[t].queries[static_cast<size_t>(ids[i])]);
      }
      const auto labels = session->LabelBatch(batch).ValueOrDie();
      for (size_t i = begin; i < end; ++i) {
        expected[{static_cast<int>(t), ids[i]}] = labels.hard_labels[i - begin];
      }
    }
  }
  int64_t mismatches = 0;
  int64_t correct = 0;
  int64_t scored = 0;
  JsonValue phase_json = JsonValue::MakeArray();
  for (size_t k = 0; k < phases.size(); ++k) {
    PhaseResult& phase = phases[k];
    // Accuracy counts the sweep, which answers every query once, so it
    // depends on the seed only.
    const bool scored_window = k == sweep;
    for (size_t i = 0; i < phase.timings.size(); ++i) {
      const RequestTiming& t = phase.timings[i];
      const Pick& p = phase.picks[i];
      if (!t.answered || !t.ok) continue;
      if (t.label != expected[{p.task, p.image}]) {
        ++mismatches;
        --phase.succeeded;
        ++phase.failed;
      }
      if (scored_window) {
        ++scored;
        correct += t.label == setup.tasks[static_cast<size_t>(p.task)]
                                  .truth[static_cast<size_t>(p.image)];
      }
    }
    result.attempted += phase.sent;
    result.failed += phase.failed;
    phase_json.Append(PhaseJson(phase));
    std::printf("%s phase %-16s rate %6.0f rps sent %lld succeeded %lld "
                "failed %lld p50 %.3f ms p%.4g %.3f ms achieved %.1f rps "
                "generator late p99 %.3f ms%s\n",
                spec.name, phase.name.c_str(), phase.rate,
                static_cast<long long>(phase.sent),
                static_cast<long long>(phase.succeeded),
                static_cast<long long>(phase.failed), phase.p50_ms,
                100 * phase.tail.q, phase.tail.value, phase.achieved_rps,
                phase.late_p99_ms, phase.valid ? "" : " INVALID");
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "%s: %lld served labels disagree with "
                 "Session::LabelBatch\n", spec.name,
                 static_cast<long long>(mismatches));
  }
  result.detail.Set("phases", std::move(phase_json));
  result.detail.Set("label_mismatches", JsonValue(mismatches));
  result.detail.Set("republished", JsonValue(setup.publishes));
  result.detail.Set("nominal_rps", JsonValue(spec.nominal_rps));
  JsonValue ladder = JsonValue::MakeArray();
  for (double r : spec.ladder_rps) ladder.Append(JsonValue(r));
  result.detail.Set("ladder_rps", std::move(ladder));
  result.detail.Set("latency_limit_ms", JsonValue(kLatencyLimitMs));
  // Valid when the server, not the generator, set the pace of every
  // window the latency figures use; quiet when the host did not
  // interfere with them either.
  bool valid = true, quiet = true;
  for (size_t i : nominal) {
    valid = valid && phases[i].valid;
    quiet = quiet && phases[i].clean;
  }
  result.detail.Set("valid", JsonValue(valid));
  result.detail.Set("host_quiet_during_windows", JsonValue(quiet));

  // Latency: medians over the nominal windows (the traced ones only in a
  // traced run, whose untraced windows give the overhead baseline).
  std::vector<double> window_p50, window_p90, window_tail, window_late,
      untraced_p50, pooled, window_cpu_ms;
  bool nominal_meets_limit = true;
  for (size_t i : nominal) {
    const PhaseResult& w = phases[i];
    if (options.trace && w.name.rfind("untraced", 0) == 0) {
      untraced_p50.push_back(w.p50_ms);
      continue;
    }
    window_p50.push_back(w.p50_ms);
    window_cpu_ms.push_back(
        1e3 * Ratio(w.server_cpu_s, static_cast<double>(w.succeeded)));
    window_p90.push_back(Percentile(w.latency_ms, 0.9));
    window_tail.push_back(w.tail.value);
    pooled.insert(pooled.end(), w.latency_ms.begin(), w.latency_ms.end());
    window_late.push_back(w.late_p99_ms);
    nominal_meets_limit = nominal_meets_limit && w.meets_limit;
  }
  std::vector<const PhaseResult*> rung_results;
  for (size_t i : rungs) rung_results.push_back(&phases[i]);
  const double p50 = Median(window_p50);
  const double tail = Median(window_tail);
  const double max_rate =
      MaxRate(spec.nominal_rps, tail, nominal_meets_limit, rung_results);
  const TailValue pooled_tail = TailPercentile(pooled, 0.99);
  const double reference_s = reference.MedianSeconds();
  result.detail.Set("latency_p99_quantile", JsonValue(pooled_tail.q));
  result.detail.Set("nominal_cpu_ms_per_request",
                    JsonValue(Median(window_cpu_ms)));
  result.detail.Set("generator_late_ms_p99", JsonValue(Median(window_late)));
  result.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(max_rss_kb) / 1024.0, "MB"},
      {"label_accuracy", Ratio(static_cast<double>(correct),
                               static_cast<double>(scored)),
       "fraction"},
      {"images_per_ref", Median(bursts) * reference_s, "img/ref"},
  };
  result.info = {
      {"images_per_s", Median(bursts), "img/s"},
      {"cpu_ms_per_image", Median(burst_cpu_ms), "ms"},
      {"reference_pass_ms", 1e3 * reference_s, "ms"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_p90_ms", Median(window_p90), "ms"},
      {"latency_p99_ms", pooled_tail.value, "ms"},
      {"max_rate_rps", max_rate, "req/s"},
  };
  if (!options.trace) return result;

  auto stats = JsonValue::Parse(stats_line);
  const JsonValue* pipeline = stats.ok() ? stats->Find("pipeline") : nullptr;
  double extract_items = 0, extract_batches = 0, backpressured = 0;
  const JsonValue* stages = pipeline ? pipeline->Find("stages") : nullptr;
  if (stages != nullptr && stages->is_array()) {
    for (const JsonValue& stage : stages->items()) {
      backpressured += Number(stage.Find("backpressured"));
      const JsonValue* name = stage.Find("name");
      if (name != nullptr && name->is_string() && name->str() == "extract") {
        extract_items = Number(stage.Find("items"));
        extract_batches = Number(stage.Find("batches"));
      }
    }
  }
  const JsonValue* admission = pipeline ? pipeline->Find("admission") : nullptr;
  const JsonValue* registry = stats.ok() ? stats->Find("registry") : nullptr;
  const double hits = registry ? Number(registry->Find("hits")) : 0.0;
  const double loads = registry ? Number(registry->Find("loads")) : 0.0;

  std::vector<std::pair<std::string, double>> values = {
      {"data.make_tasks_s", SpanMedianMs(*tracer, "data.make_tasks") / 1e3},
      {"serve.pipeline.extract_mean_batch",
       Ratio(extract_items, extract_batches)},
      {"serve.pipeline.backpressured", backpressured},
      {"serve.pipeline.admission_rejected",
       admission ? Number(admission->Find("rejected")) : 0.0},
      {"bench.generator_late_ms_p99", Median(window_late)},
  };
  if (registry != nullptr) {
    values.emplace_back("serve.registry.hit_ratio", Ratio(hits, hits + loads));
    values.emplace_back("serve.registry.evictions",
                        Number(registry->Find("evictions")));
    values.emplace_back("serve.registry.reloads",
                        Number(registry->Find("reloads")));
  }
  ProbeLayers(spec, setup, options, tracer, &values);
  double handle_ms = 0.0;
  for (const auto& [name, value] : values) {
    if (name == "serve.service.handle_line_ms") handle_ms = value;
  }
  values.emplace_back("serve.service.wait_ms_p50", p50 - handle_ms);
  if (spec.num_tasks > 1) {
    values.emplace_back(
        "serve.session.resident_bytes",
        registry ? Number(registry->Find("resident_bytes")) : 0.0);
  }
  const double baseline = Median(untraced_p50);
  values.emplace_back("bench.trace_overhead_ms", p50 - baseline);
  values.emplace_back("bench.trace_overhead_share",
                      Ratio(p50 - baseline, baseline));
  FinishPerLayer(values, &result);
  return result;
}

}  // namespace perfbench
