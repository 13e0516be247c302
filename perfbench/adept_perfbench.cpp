// End-to-end benchmark of the ADEPT design flow and of serving its frozen
// output, driven only through public entry points and measured from
// outside. perfbench/run.py builds and runs this binary; perfbench/README.md
// is the metric map.
//
//   adept_perfbench --workload design_r1|design_r4 --seed N --seconds S
//                   --trace 0|1 [--stair-rate R] --workdir DIR --out REPORT.json
//
// One process (perfbench/run.py runs an untraced run as several of them):
//   set-up (timed kSetups times with --trace 1, once otherwise): synthetic
//     datasets from the seed; the deployable serving model (proxy CNN on a
//     fixed K=8 butterfly PTC, width 32) trained, saved, loaded back, frozen
//     fp32, checked against the eval-mode tape forward, and run at batch 1
//     over the request pool to get reference outputs.
//   rounds, repeated with the same seed until their time share is spent:
//     the paper flow — ADEPT search (K=16, AMF PDK, window [672, 840]
//     k-um^2) -> noise-aware retrain (sigma 0.02) of the proxy CNN on the
//     searched topology -> noisy evaluation (sigma 0.06, several draws),
//     retrain and evaluation repeated kRetrainsPerRound times. design_r1
//     goes through AdeptSearcher::run and the default TrainConfig;
//     design_r4 through run_search_data_parallel(..., 4) and
//     TrainConfig{.ranks = 4}.
//   ladder steps, after the rounds: open-loop Poisson load on a
//     runtime::Server with its default config, climbing (unless --stair-rate
//     continues an earlier process's staircase) and then staircasing around
//     the fastest rate that meets the latency limit (serve_max_qps).
// With --trace 1 the rounds run twice after set-up, each round followed by
// one serving window at a low and one at a high rate: untraced (for
// counters, OS samples and the trace-overhead baseline), then traced with
// benchmark-side spans around the public calls; the trace goes to
// DIR/trace.json for perfbench/attribute.py. The ladder is skipped.
//
// Nothing here sets ADEPT_* or OMP_* variables: the run uses the machine's
// default thread policy and records it in the report's "env" object.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/tensor.h"
#include "backend/dispatch.h"
#include "backend/parallel.h"
#include "core/search.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "nn/train.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "photonics/builders.h"
#include "photonics/pdk.h"
#include "runtime/checkpoint.h"
#include "runtime/compiled_model.h"
#include "runtime/server.h"

extern char** environ;

namespace {

namespace core = adept::core;
namespace data = adept::data;
namespace nn = adept::nn;
namespace obs = adept::obs;
namespace ph = adept::photonics;
namespace rt = adept::runtime;
using Clock = std::chrono::steady_clock;

// ---- workload constants -----------------------------------------------------

constexpr int kSetups = 3;

// Design flow (bench_fig4's ADEPT-a2 target at a size that runs in seconds).
constexpr int kMeshK = 16;
constexpr double kWindowMin = 672.0;  // k-um^2
constexpr double kWindowMax = 840.0;
constexpr int kTrainN = 288;
constexpr int kValN = 128;
constexpr int kTestN = 256;
constexpr int kSearchEpochs = 3;
constexpr int kStepsPerEpoch = 12;
constexpr int kCnnWidth = 6;
constexpr int kBatch = 24;
constexpr int kRetrainEpochs = 4;
constexpr double kRetrainLr = 3e-3;
constexpr double kTrainNoise = 0.02;
constexpr double kEvalNoise = 0.06;
constexpr int kNoiseDraws = 4;
constexpr int kEvalBatch = 64;

// Serving (bench_serve's deployable model).
constexpr int kImage = 24;
constexpr int kClasses = 10;
constexpr int kServeWidth = 32;
constexpr int kServeTrainN = 256;
constexpr int kServeEvalN = 128;
constexpr int kPool = 64;
constexpr double kLowRate = 250.0;   // requests/s: requests arrive alone
constexpr double kHighRate = 750.0;  // requests/s: faster windows go metastable
constexpr double kLatencyLimitMs = 50.0;  // serve_max_qps p99 limit
// serve_max_qps ladder: a climb by kClimbRatio from kClimbStart until a rate
// misses the limit twice in a row (no fixed top; kMaxRate only stops a
// runaway), then an up-down staircase by kStairRatio around that edge.
constexpr double kClimbStart = kHighRate * 1.5;
constexpr double kClimbRatio = 1.5;
constexpr double kStairRatio = 1.1;
constexpr int kStairSteps = 5;  // per process
constexpr double kMaxRate = 1e5;

// Shares of this process's --seconds (perfbench/run.py gives each process
// of an untraced run a third of the run's). Rounds of the design flow (plus,
// in a per-layer run, a low-rate and a high-rate window) repeat until
// kRoundsShare is spent; ladder steps follow.
constexpr double kRoundsShare = 0.55;
constexpr int kMinRounds = 2;
constexpr int kRetrainsPerRound = 3;
constexpr double kLowWindowShare = 0.05;
constexpr double kHighWindowShare = 0.025;
constexpr double kLadderStepShare = 0.0375;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- outside-in OS counters over a timed phase -------------------------------

int count_threads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

struct PhaseStats {
  double wall_s = 0;
  double cpu_s = 0;
  double invol_csw = 0;
  int threads_peak = 0;

  void add(const PhaseStats& o) {
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    invol_csw += o.invol_csw;
    threads_peak = std::max(threads_peak, o.threads_peak);
  }
};

// Samples getrusage at both ends of a phase and polls /proc/self/task from a
// side thread while it runs; the side thread does not count itself.
class PhaseProbe {
 public:
  PhaseProbe() : t0_(Clock::now()), ru0_(usage()) {
    peak_.store(count_threads());
    sampler_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        const int n = count_threads() - 1;
        if (n > peak_.load(std::memory_order_relaxed)) peak_.store(n);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  ~PhaseProbe() { join(); }
  PhaseProbe(const PhaseProbe&) = delete;
  PhaseProbe& operator=(const PhaseProbe&) = delete;

  PhaseStats finish() {
    const rusage ru1 = usage();
    const Clock::time_point t1 = Clock::now();
    join();
    PhaseStats s;
    s.wall_s = seconds_between(t0_, t1);
    s.cpu_s = cpu_seconds(ru1) - cpu_seconds(ru0_);
    s.invol_csw = static_cast<double>(ru1.ru_nivcsw - ru0_.ru_nivcsw);
    s.threads_peak = peak_.load();
    return s;
  }

 private:
  static rusage usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
  }
  static double cpu_seconds(const rusage& ru) {
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  void join() {
    stop_.store(true);
    if (sampler_.joinable()) sampler_.join();
  }

  Clock::time_point t0_;
  rusage ru0_;
  std::atomic<int> peak_{0};
  std::atomic<bool> stop_{false};
  std::thread sampler_;  // last: uses the members above
};

// ---- output checks ----------------------------------------------------------

struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---- the design flow --------------------------------------------------------

// Times every forward the search asks of the proxy task (loss / loss_shard)
// and forwards everything else unchanged.
class TimedTask : public core::ProxyTask {
 public:
  TimedTask(std::unique_ptr<core::ProxyTask> inner, std::atomic<std::int64_t>& loss_ns)
      : inner_(std::move(inner)), loss_ns_(loss_ns) {}

  void bind(core::SuperMesh& mesh) override { inner_->bind(mesh); }
  adept::ag::Tensor loss(core::SuperMesh& mesh, bool validation) override {
    return timed([&] { return inner_->loss(mesh, validation); });
  }
  std::vector<adept::ag::Tensor> weights() override { return inner_->weights(); }
  double metric(core::SuperMesh& mesh) override { return inner_->metric(mesh); }
  bool supports_sharding() const override { return inner_->supports_sharding(); }
  std::int64_t begin_step_items(bool validation) override {
    return inner_->begin_step_items(validation);
  }
  adept::ag::Tensor loss_shard(core::SuperMesh& mesh, bool validation,
                               std::int64_t lo, std::int64_t hi,
                               std::int64_t items) override {
    return timed([&] { return inner_->loss_shard(mesh, validation, lo, hi, items); });
  }
  std::int64_t stat_slots() const override { return inner_->stat_slots(); }
  void capture_shard_stats(float* row) override { inner_->capture_shard_stats(row); }
  void apply_step_stats(const float* rows, int shards) override {
    inner_->apply_step_stats(rows, shards);
  }

 private:
  template <typename Fn>
  adept::ag::Tensor timed(Fn&& fn) {
    static const obs::TraceId span_id = obs::intern_name("bench.task_loss");
    obs::TraceSpan span(span_id);
    const auto t0 = Clock::now();
    adept::ag::Tensor out = fn();
    loss_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    return out;
  }

  std::unique_ptr<core::ProxyTask> inner_;
  std::atomic<std::int64_t>& loss_ns_;
};

struct DesignData {
  data::SyntheticDataset train, val, test;
  explicit DesignData(std::uint64_t seed)
      : train(data::DatasetSpec::mnist_like(), kTrainN, seed * 4 + 1),
        val(data::DatasetSpec::mnist_like(), kValN, seed * 4 + 2),
        test(data::DatasetSpec::mnist_like(), kTestN, seed * 4 + 3) {}
};

// Process-monotonic registry reads; deltas isolate one phase.
std::uint64_t counter_value(const char* name) {
  const auto* c = obs::snapshot().find_counter(name);
  return c != nullptr ? c->value : 0;
}
std::uint64_t histogram_count(const char* name) {
  const auto* h = obs::snapshot().find_histogram(name);
  return h != nullptr ? h->count : 0;
}
// Sum of a histogram's samples, from its bucket-midpoint mean (within one
// bucket width, <= 6.25%).
double histogram_sum(const char* name) {
  const auto* h = obs::snapshot().find_histogram(name);
  return h != nullptr ? h->mean * static_cast<double>(h->count) : 0.0;
}

struct DesignTotals {
  std::vector<double> search_s, train_s, eval_s;  // one entry per call
  std::vector<std::string> digests;               // one per search
  PhaseStats search_os, train_os, eval_os;
  std::int64_t loss_ns = 0;
  std::uint64_t search_steps = 0, legalizations = 0;
  std::uint64_t retrain_epochs = 0;  // train.epoch_us samples of the retrains only
  double retrain_epoch_us = 0;
  std::uint64_t allreduce_calls = 0, allreduce_bytes = 0;
};

struct Spans {
  obs::TraceId search = obs::intern_name("bench.search");
  obs::TraceId train = obs::intern_name("bench.train");
  obs::TraceId eval = obs::intern_name("bench.eval");
  obs::TraceId submit = obs::intern_name("bench.submit");
  obs::TraceId serve_low = obs::intern_name("bench.serve.low");
  obs::TraceId serve_high = obs::intern_name("bench.serve.high");
};

// The ADEPT search; checks the design and records its time and counters.
ph::PtcTopology run_search(const DesignData& d, int ranks, std::uint64_t seed,
                           const Spans& spans, DesignTotals& tot, Checks& checks) {
  const ph::Pdk pdk = ph::Pdk::amf();
  core::SearchConfig config;
  config.mesh.k = kMeshK;
  config.mesh.super_blocks_per_unitary = 0;  // derived from the window
  config.max_super_blocks_per_unitary = 10;
  config.footprint.pdk = pdk;
  config.footprint.f_min = kWindowMin;
  config.footprint.f_max = kWindowMax;
  config.epochs = kSearchEpochs;
  config.warmup_epochs = std::max(1, kSearchEpochs / 9);
  config.spl_epoch = std::max(1, kSearchEpochs * 5 / 9);
  config.steps_per_epoch = kStepsPerEpoch;
  config.alm.rho0 = 1e-4 * kMeshK / 8.0;
  config.seed = seed;

  std::atomic<std::int64_t> loss_ns{0};
  auto make_task = [&] {
    return std::make_unique<TimedTask>(
        std::make_unique<nn::OnnProxyTask>(d.train, d.val, kBatch, kCnnWidth, seed + 1),
        loss_ns);
  };

  const std::uint64_t steps0 = histogram_count("search.step_us");
  const std::uint64_t legal0 = counter_value("search.legalize_count");
  const std::uint64_t calls0 = counter_value("comm.allreduce.calls");
  const std::uint64_t bytes0 = counter_value("comm.allreduce.bytes");
  core::SearchResult searched;
  {
    PhaseProbe probe;
    obs::TraceSpan span(spans.search);
    const auto t0 = Clock::now();
    if (ranks > 1) {
      searched = core::run_search_data_parallel(config, make_task, ranks);
    } else {
      auto task = make_task();
      core::AdeptSearcher searcher(config, *task);
      searched = searcher.run();
    }
    tot.search_s.push_back(seconds_between(t0, Clock::now()));
    tot.search_os.add(probe.finish());
  }
  tot.loss_ns += loss_ns.load();
  tot.search_steps += histogram_count("search.step_us") - steps0;
  tot.legalizations += counter_value("search.legalize_count") - legal0;
  tot.allreduce_calls += counter_value("comm.allreduce.calls") - calls0;
  tot.allreduce_bytes += counter_value("comm.allreduce.bytes") - bytes0;

  // The searched design must be legal and inside the footprint window.
  bool legal = true;
  try {
    searched.topology.validate();
  } catch (const std::exception&) {
    legal = false;
  }
  const double footprint = searched.topology.footprint_um2(pdk) / 1000.0;
  checks.record(legal && footprint >= kWindowMin && footprint <= kWindowMax,
                "searched topology illegal or footprint " + std::to_string(footprint) +
                    " outside [672, 840]");
  tot.digests.push_back(hex(fnv1a(searched.topology.serialize())));
  return searched.topology;
}

// Noise-aware retrain of the proxy CNN on `design`, then the noisy
// evaluation; checks accuracy and records both times.
void retrain_and_eval(const DesignData& d, const ph::PtcTopology& design, int ranks,
                      std::uint64_t seed, const Spans& spans, DesignTotals& tot,
                      Checks& checks) {
  auto topo = std::make_shared<ph::PtcTopology>(design);
  adept::Rng rng(seed + 2);
  const auto& spec = d.train.spec();
  nn::OnnModel model = nn::make_proxy_cnn(spec.channels, spec.height, spec.classes,
                                          nn::PtcBinding::fixed(topo), rng, kCnnWidth);
  nn::TrainConfig tc;
  tc.epochs = kRetrainEpochs;
  tc.batch_size = kBatch;
  tc.seed = seed + 3;
  tc.lr = kRetrainLr;
  tc.train_phase_noise = kTrainNoise;
  if (ranks > 1) tc.ranks = ranks;
  nn::TrainStats stats;
  const std::uint64_t epochs0 = histogram_count("train.epoch_us");
  const double epoch_us0 = histogram_sum("train.epoch_us");
  {
    PhaseProbe probe;
    obs::TraceSpan span(spans.train);
    const auto t0 = Clock::now();
    stats = nn::train_classifier(model, d.train, d.test, tc);
    tot.train_s.push_back(seconds_between(t0, Clock::now()));
    tot.train_os.add(probe.finish());
  }
  tot.retrain_epochs += histogram_count("train.epoch_us") - epochs0;
  tot.retrain_epoch_us += histogram_sum("train.epoch_us") - epoch_us0;
  checks.record(stats.final_accuracy > 1.0 / spec.classes,
                "retrain accuracy " + std::to_string(stats.final_accuracy) +
                    " not above chance");

  {
    PhaseProbe probe;
    obs::TraceSpan span(spans.eval);
    const auto t0 = Clock::now();
    double acc = 0;
    for (int r = 0; r < kNoiseDraws; ++r) {
      acc += nn::evaluate_accuracy(model, d.test, kEvalBatch, kEvalNoise,
                                   seed * 131 + static_cast<std::uint64_t>(r));
    }
    tot.eval_s.push_back(seconds_between(t0, Clock::now()));
    tot.eval_os.add(probe.finish());
    checks.record(std::isfinite(acc) && acc >= 0.0, "noisy evaluation not finite");
  }
}

// ---- serving set-up -------------------------------------------------------------

struct ServeState {
  std::unique_ptr<rt::CompiledModel> cm;
  std::vector<std::vector<float>> pool;  // request inputs
  std::vector<std::vector<float>> ref;   // batch-1 reference outputs
  double save_ms = 0, load_ms = 0, freeze_ms = 0;
  std::vector<std::string> step_kinds;
};

std::vector<float> tape_forward(nn::OnnModel& model, const std::vector<float>& x,
                                std::int64_t batch) {
  adept::ag::NoGradGuard guard;
  model.set_training(false);
  adept::ag::Tensor t = adept::ag::make_tensor(x, {batch, 1, kImage, kImage}, false);
  return model.net->forward(t).data();
}

ServeState serve_setup(std::uint64_t seed, const std::string& workdir, Checks& checks) {
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  adept::Rng rng(seed * 7 + 17);
  nn::OnnModel model = nn::make_proxy_cnn(1, kImage, kClasses,
                                          nn::PtcBinding::fixed(topo), rng, kServeWidth);
  data::DatasetSpec spec = data::DatasetSpec::mnist_like();
  spec.height = spec.width = kImage;
  spec.classes = kClasses;
  data::SyntheticDataset train(spec, kServeTrainN, seed * 4 + 5);
  data::SyntheticDataset eval_set(spec, kServeEvalN, seed * 4 + 6);
  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.seed = seed + 11;
  nn::train_classifier(model, train, eval_set, tc);

  ServeState s;
  const std::string path = workdir + "/serve_" + std::to_string(getpid()) + ".ckpt";
  auto t0 = Clock::now();
  rt::save_checkpoint(model, path);
  s.save_ms = 1e3 * seconds_between(t0, Clock::now());
  t0 = Clock::now();
  rt::LoadedCheckpoint loaded = rt::load_checkpoint(path);
  s.load_ms = 1e3 * seconds_between(t0, Clock::now());
  std::remove(path.c_str());
  t0 = Clock::now();
  s.cm = std::make_unique<rt::CompiledModel>(
      rt::CompiledModel::freeze(loaded.model, {1, kImage, kImage}));
  s.freeze_ms = 1e3 * seconds_between(t0, Clock::now());

  // The frozen plan must equal the eval-mode tape forward on the eval set.
  std::vector<float> x;
  for (int i = 0; i < eval_set.size(); ++i) {
    x.insert(x.end(), eval_set.image(i).begin(), eval_set.image(i).end());
  }
  checks.record(bit_equal(tape_forward(loaded.model, x, eval_set.size()),
                          s.cm->run(x, eval_set.size())),
                "frozen plan differs from the eval-mode tape forward");

  adept::Rng prng(seed * 7 + 29);
  rt::CompiledModel::Workspace ws;
  for (int i = 0; i < kPool; ++i) {
    std::vector<float> in(static_cast<std::size_t>(kImage * kImage));
    for (auto& v : in) v = static_cast<float>(prng.uniform(-1.0, 1.0));
    std::vector<float> out(static_cast<std::size_t>(s.cm->output_numel()));
    s.cm->run(in.data(), 1, out.data(), ws);
    s.pool.push_back(std::move(in));
    s.ref.push_back(std::move(out));
  }
  std::ostringstream plan;
  s.cm->dump_plan(plan);
  std::string line;
  std::istringstream lines(plan.str());
  while (std::getline(lines, line)) {
    if (line.rfind('#', 0) != 0) continue;
    std::istringstream words(line);
    std::string idx, kind;
    words >> idx >> kind;
    s.step_kinds.push_back(kind);
  }
  return s;
}

// ---- open-loop load -------------------------------------------------------------

// One open-loop window, or several pooled with merge().
struct LoadResult {
  double rate = 0;     // nominal offered rate
  double seconds = 0;  // length of the arrival schedule(s)
  std::int64_t sent = 0, failed = 0;
  std::vector<double> lat_ms;  // from due time; +inf for a failed request
  std::vector<double> lag_ms;  // generator lateness
  double drain_ms = 0;         // last completion after the last due time
  double requests = 0, batches = 0;      // server counters
  std::vector<double> queue_wait_p99_ms;  // one per server instance
  std::vector<double> window_p50_ms;      // one per window
  PhaseStats os;

  double p(double q) const { return quantile(lat_ms, q); }
  double fill() const { return batches > 0 ? requests / batches : 0.0; }
  bool meets_limit() const {
    return failed == 0 && p(0.99) <= kLatencyLimitMs && drain_ms <= kLatencyLimitMs;
  }
  void merge(const LoadResult& o) {
    rate = o.rate;
    seconds += o.seconds;
    sent += o.sent;
    failed += o.failed;
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    drain_ms = std::max(drain_ms, o.drain_ms);
    requests += o.requests;
    batches += o.batches;
    queue_wait_p99_ms.insert(queue_wait_p99_ms.end(), o.queue_wait_p99_ms.begin(),
                             o.queue_wait_p99_ms.end());
    window_p50_ms.insert(window_p50_ms.end(), o.window_p50_ms.begin(), o.window_p50_ms.end());
    os.add(o.os);
  }
};

// One generator thread sends at fixed-seed Poisson arrival times; one
// collector thread waits on the futures in order and checks every response
// bit for bit against the batch-1 reference.
LoadResult run_open_loop(const ServeState& st, double rate, double seconds,
                         std::uint64_t seed, const Spans& spans, Checks& checks) {
  adept::Rng rng(seed);
  std::vector<double> due_s;
  std::vector<int> which;
  for (double t = -std::log(1.0 - rng.uniform()) / rate; t < seconds;
       t += -std::log(1.0 - rng.uniform()) / rate) {
    due_s.push_back(t);
    which.push_back(static_cast<int>(rng.uniform() * kPool) % kPool);
  }
  const std::size_t n = due_s.size();

  LoadResult r;
  r.rate = rate;
  r.seconds = seconds;
  r.lat_ms.assign(n, 0.0);
  r.lag_ms.assign(n, 0.0);
  rt::Server server(*st.cm);  // default config: ServerConfig::from_env()
  std::vector<std::future<std::vector<float>>> futures(n);
  std::atomic<std::int64_t> published{0};
  std::int64_t failed = 0, mismatched = 0;
  Clock::time_point last_done{};

  PhaseProbe probe;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due(i));
      r.lag_ms[i] = 1e3 * seconds_between(due(i), Clock::now());
      {
        obs::TraceSpan span(spans.submit);
        futures[i] = server.submit(st.pool[static_cast<std::size_t>(which[i])]);
      }
      published.store(static_cast<std::int64_t>(i + 1), std::memory_order_release);
      published.notify_one();
    }
  });
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::int64_t seen = published.load(std::memory_order_acquire);
           seen <= static_cast<std::int64_t>(i);
           seen = published.load(std::memory_order_acquire)) {
        published.wait(seen, std::memory_order_acquire);
      }
      try {
        const std::vector<float> out = futures[i].get();
        last_done = Clock::now();
        r.lat_ms[i] = 1e3 * seconds_between(due(i), last_done);
        if (!bit_equal(out, st.ref[static_cast<std::size_t>(which[i])])) ++mismatched;
      } catch (const std::exception&) {
        last_done = Clock::now();
        r.lat_ms[i] = std::numeric_limits<double>::infinity();
        ++failed;
      }
    }
  });
  generator.join();
  collector.join();
  r.os = probe.finish();

  r.sent = static_cast<std::int64_t>(n);
  r.failed = failed + mismatched;
  r.drain_ms = n > 0 ? 1e3 * seconds_between(due(n - 1), last_done) : 0.0;
  checks.attempted += r.sent;
  checks.failed += r.failed;
  if (mismatched > 0) {
    checks.failures.push_back(std::to_string(mismatched) +
                              " served responses differ from the batch-1 reference");
  }
  if (failed > 0) {
    checks.failures.push_back(std::to_string(failed) + " requests failed");
  }

  const obs::MetricsSnapshot snap = obs::snapshot();
  const std::string& pfx = server.metrics_prefix();
  const auto* reqs = snap.find_counter(pfx + "requests");
  const auto* batches = snap.find_counter(pfx + "batches");
  const auto* qw = snap.find_histogram(pfx + "queue_wait_ns");
  if (reqs != nullptr && batches != nullptr) {
    r.requests = static_cast<double>(reqs->value);
    r.batches = static_cast<double>(batches->value);
  }
  if (qw != nullptr) r.queue_wait_p99_ms.push_back(qw->p99 / 1e6);
  r.window_p50_ms.push_back(r.p(0.5));
  return r;
}

// Median of timed CompiledModel::run calls at `batch`.
double plan_run_ms_here(const ServeState& st, int batch) {
  std::vector<float> in;
  for (int i = 0; i < batch; ++i) {
    const auto& x = st.pool[static_cast<std::size_t>(i % kPool)];
    in.insert(in.end(), x.begin(), x.end());
  }
  std::vector<float> out(static_cast<std::size_t>(batch * st.cm->output_numel()));
  rt::CompiledModel::Workspace ws;
  st.cm->run(in.data(), batch, out.data(), ws);  // size the workspace
  std::vector<double> ms;
  const auto t_end = Clock::now() + std::chrono::milliseconds(400);
  while (ms.size() < 20 || (Clock::now() < t_end && ms.size() < 2000)) {
    const auto t0 = Clock::now();
    st.cm->run(in.data(), batch, out.data(), ws);
    ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  return median(ms);
}

// The same, on a fresh thread, as a server worker would make the calls.
double plan_run_ms(const ServeState& st, int batch) {
  double ms = 0;
  std::thread([&] { ms = plan_run_ms_here(st, batch); }).join();
  return ms;
}

// ---- one measured pass ------------------------------------------------------------

// A pause before each phase, so spinning kernel threads left by the previous
// phase park instead of being charged to the next one.
void idle_gap() { std::this_thread::sleep_for(std::chrono::milliseconds(200)); }

// serve_max_qps ladder steps of one process. perfbench/run.py splits an
// untraced run into processes and hands the staircase from one to the next.
struct Ladder {
  std::vector<LoadResult> steps;  // every step, in order
  std::vector<double> stair_qps;  // realized rate of each staircase step
  double rate = 0;                // next staircase rate; 0 before the climb
};

struct Pass {
  DesignTotals design;
  LoadResult low, high;
  Ladder ladder;
};

// Without a staircase rate to continue from, this climbs first: from
// kClimbStart up by kClimbRatio until one rate misses the limit on two tries
// in a row (a single miss can be a stall of the host; the retry guards the
// climb against it), and starts the staircase half a climb step below that
// rate. It then runs kStairSteps staircase steps, one step up by kStairRatio
// after a pass and one down after a miss, so the staircase settles around
// the fastest rate that meets the limit. Steps always run to the end: no
// wall-clock cap truncates the ladder.
void run_ladder(Ladder& l, const ServeState& st, std::uint64_t seed, double seconds,
                const Spans& spans, Checks& checks) {
  auto step = [&](double rate) {
    l.steps.push_back(run_open_loop(st, rate, kLadderStepShare * seconds,
                                    seed * 1000 + 500 + l.steps.size(), spans, checks));
    return l.steps.back().meets_limit();
  };
  if (l.rate == 0) {
    double rate = kClimbStart;
    while (rate < kMaxRate && (step(rate) || step(rate))) rate *= kClimbRatio;
    l.rate = rate / std::sqrt(kClimbRatio);
  }
  for (int i = 0; i < kStairSteps; ++i) {
    const bool pass = step(l.rate);
    const LoadResult& r = l.steps.back();
    l.stair_qps.push_back(static_cast<double>(r.sent) / r.seconds);
    l.rate = pass ? std::min(l.rate * kStairRatio, kMaxRate) : l.rate / kStairRatio;
  }
}

// Rounds of the design flow, then ladder steps. A per-layer pass (`layers`,
// both passes of --trace 1) adds to each round the low- and high-rate
// serving windows, which only per-layer metrics read, and skips the ladder.
Pass run_pass(const DesignData& d, const ServeState& st, int ranks, std::uint64_t seed,
              double seconds, double stair_rate, bool layers, const Spans& spans,
              Checks& checks) {
  Pass p;
  const auto rounds_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kRoundsShare * seconds));
  for (std::uint64_t round = 0; round < kMinRounds || Clock::now() < rounds_end; ++round) {
    // Retraining is the noisiest gated phase, so each round samples it
    // kRetrainsPerRound times.
    idle_gap();
    const ph::PtcTopology design = run_search(d, ranks, seed, spans, p.design, checks);
    for (int i = 0; i < kRetrainsPerRound; ++i) {
      retrain_and_eval(d, design, ranks, seed, spans, p.design, checks);
    }
    if (!layers) continue;
    const std::uint64_t s = seed * 1000 + 2 * round;
    idle_gap();
    {
      obs::TraceSpan span(spans.serve_low);
      p.low.merge(run_open_loop(st, kLowRate, kLowWindowShare * seconds, s, spans, checks));
    }
    {
      obs::TraceSpan span(spans.serve_high);
      p.high.merge(
          run_open_loop(st, kHighRate, kHighWindowShare * seconds, s + 1, spans, checks));
    }
  }
  if (!layers) {
    idle_gap();
    p.ladder.rate = stair_rate;
    run_ladder(p.ladder, st, seed, seconds, spans, checks);
  }
  // The same seed must give the same searched design every time.
  for (const std::string& digest : p.design.digests) {
    checks.record(digest == p.design.digests.front(),
                  "searched topology digest changed between repeats");
  }
  return p;
}

// ---- report -----------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_object(const std::map<std::string, std::string>& kv) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ", ";
    out += '"';
    out += json_escape(k);
    out += "\": ";
    out += v;
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) {
    if (out.size() > 1) out += ", ";
    out += num(x);
  }
  return out + "]";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  return out += '"';
}

std::map<std::string, std::string> env_stamp(int ranks) {
  std::map<std::string, std::string> env;
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  env["cpu_model"] = quoted(cpu);
  env["nproc"] = num(static_cast<double>(std::thread::hardware_concurrency()));
  env["simd"] = quoted(adept::backend::simd_level_name(adept::backend::simd_level()));
#ifdef _OPENMP
  env["openmp"] = "true";
#else
  env["openmp"] = "false";
#endif
  env["build_type"] = quoted(PERFBENCH_BUILD_TYPE);
  env["kernel_threads"] = num(adept::backend::num_threads());
  const rt::ServerConfig sc = rt::ServerConfig::from_env();
  env["serve_workers"] = num(sc.threads);
  env["serve_max_batch"] = num(sc.max_batch);
  env["ranks"] = num(ranks);
  std::map<std::string, std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("ADEPT_", 0) == 0 || kv.rfind("OMP_", 0) == 0) {
      const auto eq = kv.find('=');
      vars[kv.substr(0, eq)] = quoted(kv.substr(eq + 1));
    }
  }
  env["vars"] = json_object(vars);
  return env;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload, workdir = ".", out = "perfbench_report.json";
  std::uint64_t seed = 1;
  double seconds = 10;
  double stair_rate = 0;  // staircase rate to continue from; 0 climbs first
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--stair-rate") a.stair_rate = std::stod(v);
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload != "design_r1" && a.workload != "design_r4") {
    throw std::invalid_argument("--workload must be design_r1 or design_r4");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

// Per-layer numbers that come from counters, histograms and OS samples of
// one (untraced) pass.
void layer_metrics(const Pass& p, const DesignData& data, const ServeState& st, int ranks,
                   std::map<std::string, std::string>& m) {
  const DesignTotals& d = p.design;
  const obs::MetricsSnapshot snap = obs::snapshot();
  const auto* step = snap.find_histogram("search.step_us");
  const double steps = std::max<double>(1.0, static_cast<double>(d.search_steps));
  const double step_mean_ms = step != nullptr ? step->mean / 1e3 : 0.0;
  const double loss_ms = 1e-6 * static_cast<double>(d.loss_ns) / (steps * ranks);
  m["search_s"] = num(median(d.search_s));
  m["core.search.step_ms_p50"] = num(step != nullptr ? step->p50 / 1e3 : 0.0);
  m["core.search.step_ms_p99"] = num(step != nullptr ? step->p99 / 1e3 : 0.0);
  m["core.search.task_loss_ms"] = num(loss_ms);
  m["core.search.rest_ms"] = num(step_mean_ms - loss_ms);
  m["core.search.legalizations"] =
      num(static_cast<double>(d.legalizations) / static_cast<double>(d.search_s.size()));
  m["nn.train.epoch_s"] =
      num(1e-6 * d.retrain_epoch_us / std::max<double>(1.0, static_cast<double>(d.retrain_epochs)));
  const double eval_batches =
      kNoiseDraws * data::DataLoader(data.test, kEvalBatch).batches_per_epoch();
  std::vector<double> batch_ms;
  for (const double s : d.eval_s) batch_ms.push_back(1e3 * s / eval_batches);
  m["nn.eval.batch_ms"] = num(median(batch_ms));
  m["comm.allreduce.calls_per_step"] = num(static_cast<double>(d.allreduce_calls) / steps);
  m["comm.allreduce.bytes_per_step"] = num(static_cast<double>(d.allreduce_bytes) / steps);

  auto os = [&](const std::string& phase, const PhaseStats& s) {
    m["backend.parallel.threads_peak." + phase] = num(s.threads_peak);
    m["backend.parallel.cpu_per_wall." + phase] = num(s.cpu_s / s.wall_s);
    m["backend.parallel.invol_csw_per_s." + phase] = num(s.invol_csw / s.wall_s);
  };
  os("search", d.search_os);
  os("train", d.train_os);
  os("eval", d.eval_os);
  os("serve_low", p.low.os);
  os("serve_high", p.high.os);

  for (const auto& [name, r] : {std::pair<const char*, const LoadResult*>{"low", &p.low},
                                std::pair<const char*, const LoadResult*>{"high", &p.high}}) {
    m[std::string("runtime.server.queue_wait_p99_ms.") + name] =
        num(median(r->queue_wait_p99_ms));
    m[std::string("runtime.server.batch_fill.") + name] = num(r->fill());
    m[std::string("gen.lag_p99_ms.") + name] = num(quantile(r->lag_ms, 0.99));
    m[std::string("serve_p99_ms.") + name] = num(r->p(0.99));
    m[std::string("serve_p50_ms.") + name] = num(median(r->window_p50_ms));
  }
  m["runtime.plan.run_ms.b1"] = num(plan_run_ms(st, 1));
  m["runtime.plan.run_ms.b16"] = num(plan_run_ms(st, 16));
}

int run(const Args& a) {
  const int ranks = a.workload == "design_r4" ? 4 : 1;
  const Spans spans;
  Checks checks;

  // Set-up, timed kSetups times in a traced run (once in each process of an
  // untraced one); the last one is kept.
  std::vector<double> setup_s, save_ms, load_ms, freeze_ms;
  std::unique_ptr<DesignData> design;
  ServeState serve;
  for (int i = 0; i < (a.trace ? kSetups : 1); ++i) {
    const auto t0 = Clock::now();
    auto d = std::make_unique<DesignData>(a.seed);
    ServeState s = serve_setup(a.seed, a.workdir, checks);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    save_ms.push_back(s.save_ms);
    load_ms.push_back(s.load_ms);
    freeze_ms.push_back(s.freeze_ms);
    design = std::move(d);
    serve = std::move(s);
  }

  const Pass pass =
      run_pass(*design, serve, ranks, a.seed, a.seconds, a.stair_rate, a.trace, spans, checks);

  // Per-call samples of every end-to-end metric; perfbench/run.py pools them
  // over the processes of a run and takes medians.
  const DesignTotals& dt = pass.design;
  std::vector<double> train_rate, eval_rate;
  for (const double t : dt.train_s) train_rate.push_back(kTrainN * kRetrainEpochs / t);
  for (const double t : dt.eval_s) eval_rate.push_back(kTestN * kNoiseDraws / t);
  std::map<std::string, std::string> samples, layer;
  samples["setup_s"] = json_array(setup_s);
  samples["train_samples_per_s"] = json_array(train_rate);
  samples["eval_samples_per_s"] = json_array(eval_rate);
  // Realized offered rates (requests sent / schedule length) of the
  // staircase steps.
  samples["serve_max_qps"] = json_array(pass.ladder.stair_qps);
  std::string ladder = "[";
  for (const LoadResult& r : pass.ladder.steps) {
    if (ladder.size() > 1) ladder += ", ";
    ladder += json_object({{"rate", num(r.rate)}, {"p99_ms", num(r.p(0.99))},
                           {"drain_ms", num(r.drain_ms)}, {"failed", num(r.failed)},
                           {"fill", num(r.fill())}, {"pass", r.meets_limit() ? "true" : "false"}});
  }
  ladder += "]";

  std::string trace_file = "null";
  if (a.trace) {
    layer_metrics(pass, *design, serve, ranks, layer);
    layer["runtime.checkpoint.save_ms"] = num(median(save_ms));
    layer["runtime.checkpoint.load_ms"] = num(median(load_ms));
    layer["runtime.freeze_ms"] = num(median(freeze_ms));

    obs::trace_start();
    const Pass traced =
        run_pass(*design, serve, ranks, a.seed, a.seconds, 0, true, spans, checks);
    obs::trace_stop();
    const std::string path = a.workdir + "/trace.json";
    if (!obs::write_trace(path)) throw std::runtime_error("cannot write " + path);
    trace_file = quoted(path);
    layer["obs.trace_overhead_frac.search"] =
        num(median(traced.design.search_s) / median(pass.design.search_s) -
            1.0);
    layer["obs.trace_overhead_frac.serve"] =
        num(median(traced.low.window_p50_ms) / median(pass.low.window_p50_ms) - 1.0);
  }
  samples["peak_rss_mb"] = json_array({peak_rss_mb()});
  layer["fail_frac"] =
      num(static_cast<double>(checks.failed) / static_cast<double>(checks.attempted));

  std::string failures = "[";
  for (const std::string& f : checks.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += quoted(f);
  }
  failures += "]";
  std::string kinds = "[";
  for (const std::string& k : serve.step_kinds) {
    if (kinds.size() > 1) kinds += ", ";
    kinds += quoted(k);
  }
  kinds += "]";

  std::ofstream out(a.out);
  out << json_object({{"workload", quoted(a.workload)},
                      {"seed", num(static_cast<double>(a.seed))},
                      {"env", json_object(env_stamp(ranks))},
                      {"attempted", num(static_cast<double>(checks.attempted))},
                      {"failed", num(static_cast<double>(checks.failed))},
                      {"failures", failures},
                      {"digest", quoted(pass.design.digests.front())},
                      {"serve_low_window_p50_ms", json_array(pass.low.window_p50_ms)},
                      {"serve_high_window_p50_ms", json_array(pass.high.window_p50_ms)},
                      {"plan_step_kinds", kinds},
                      {"ladder", ladder},
                      {"stair_rate", num(pass.ladder.rate)},
                      {"trace_file", trace_file},
                      {"samples", json_object(samples)},
                      {"layer", json_object(layer)}})
      << "\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + a.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adept_perfbench: %s\n", e.what());
    return 1;
  }
}
