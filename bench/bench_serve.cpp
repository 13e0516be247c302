// Serving-path benchmark: tape-based eval vs the compiled tape-free engine,
// the int8 quantized plan, and steady-state server throughput under
// concurrent micro-batching.
//
//   offline single-stream   batch-1 latency of model.forward (eval mode,
//                           NoGradGuard, cached eval weights) vs
//                           CompiledModel::run (fp32 planned) vs the int8
//                           quantized plan — acceptance bars: compiled
//                           faster than tape, quantized >= 1.5x compiled.
//                           (At this model size the forward is gemm-bound,
//                           so compiled-vs-tape lands ~1.3-1.4x — the tape's
//                           per-op allocations amortize; the old 2x figure
//                           was the PR-5-era tiny model, where they did
//                           not.)
//   plan footprint          planned vs unplanned workspace bytes at the
//                           serving batch (the liveness planner's memory
//                           win) plus process peak RSS.
//   accuracy                top-1 on a held-out synthetic eval set, fp32 vs
//                           int8, after a short training run so top-1 is
//                           meaningful (quant_top1_delta = fp32 - int8).
//   quantized serving       QPS, micro-batch fill rate, and p50/p99 request
//                           latency of the int8 plan at 4 worker threads
//                           for a fixed request pile. Open-loop serving
//                           throughput is perfbench's (perfbench/).
//   overload                4 producers flood a small-queue 2-worker server
//                           (offered load far beyond capacity, 250 ms
//                           deadlines) once per overload policy. Records
//                           goodput (completed-before-deadline per second),
//                           reject/shed/deadline-miss rates, and accepted-
//                           request p99. The demonstration: `reject` and
//                           `shed_oldest` keep accepted p99 bounded by the
//                           queue, while `block` admits everything and its
//                           p99 grows with the whole backlog (latency is
//                           measured from the submit() call, so time spent
//                           blocked on the full queue counts — that is the
//                           client-observed wait).
//
// `--json [path]` emits BENCH_serve.json for the perf trajectory (schema in
// docs/benchmarks.md). Scale knobs:
//   ADEPT_BENCH_SERVE_N   requests per serving measurement (default 384,
//                         full scale 4096)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "backend/parallel.h"
#include "bench_common.h"
#include "common/table.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "nn/train.h"
#include "obs/metrics.h"
#include "photonics/builders.h"
#include "runtime/compiled_model.h"
#include "runtime/server.h"

namespace {

namespace ph = adept::photonics;
namespace nn = adept::nn;
namespace rt = adept::runtime;
namespace data = adept::data;
using adept::bench::time_best;

constexpr int kImage = 24;
constexpr int kClasses = 10;
constexpr int kWidth = 32;
constexpr int kServeBatch = 16;  // micro-batch ceiling used below

nn::OnnModel make_deployable_model() {
  // The deployable-core scenario: the proxy CNN with every matmul mapped
  // onto a fixed K=8 butterfly PTC (stand-in for a searched ADEPT design).
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  adept::Rng rng(17);
  return nn::make_proxy_cnn(1, kImage, kClasses, nn::PtcBinding::fixed(topo),
                            rng, kWidth);
}

std::vector<float> random_sample(adept::Rng& rng) {
  std::vector<float> x(kImage * kImage);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

// Process peak RSS (ru_maxrss is kilobytes on Linux). Monotonic over the
// process lifetime, so it reflects the high-water mark of everything run so
// far — the deterministic planned-vs-unplanned delta is workspace_bytes.
double peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

struct SingleStream {
  double tape_ms = 0;
  double compiled_ms = 0;
  double quant_ms = 0;
};

SingleStream measure_single_stream(nn::OnnModel& model,
                                   const rt::CompiledModel& cm,
                                   const rt::CompiledModel& cmq) {
  // The single-stream latencies feed the compiled-vs-tape and int8-vs-fp32
  // speedup gates, so they take the best of many SMALL sampling windows
  // (25 x ~4 ms) instead of time_best's default 5 x 20 ms: on a shared
  // machine a short window has a far better chance of running preemption-
  // free, and the minimum over many of them converges on the true latency.
  constexpr int kReps = 25;
  constexpr double kSample = 0.004;
  adept::Rng rng(5);
  const std::vector<float> x = random_sample(rng);
  SingleStream r;
  {
    adept::ag::NoGradGuard guard;
    model.set_training(false);
    adept::ag::Tensor xt =
        adept::ag::make_tensor(x, {1, 1, kImage, kImage}, false);
    r.tape_ms =
        time_best([&] { (void)model.net->forward(xt); }, kReps, kSample) * 1e3;
  }
  {
    rt::CompiledModel::Workspace ws;
    std::vector<float> out(static_cast<std::size_t>(cm.output_numel()));
    r.compiled_ms =
        time_best([&] { cm.run(x.data(), 1, out.data(), ws); }, kReps, kSample) *
        1e3;
  }
  {
    rt::CompiledModel::Workspace ws;
    std::vector<float> out(static_cast<std::size_t>(cmq.output_numel()));
    r.quant_ms =
        time_best([&] { cmq.run(x.data(), 1, out.data(), ws); }, kReps, kSample) *
        1e3;
  }
  return r;
}

// Top-1 accuracy of a compiled plan over the eval set.
double compiled_top1(const rt::CompiledModel& cm,
                     const data::SyntheticDataset& set) {
  rt::CompiledModel::Workspace ws;
  std::vector<float> out(static_cast<std::size_t>(cm.output_numel()));
  int hits = 0;
  for (int i = 0; i < set.size(); ++i) {
    cm.run(set.image(i).data(), 1, out.data(), ws);
    int arg = 0;
    for (int j = 1; j < static_cast<int>(out.size()); ++j) {
      if (out[static_cast<std::size_t>(j)] > out[static_cast<std::size_t>(arg)]) arg = j;
    }
    if (arg == set.label(i)) ++hits;
  }
  return static_cast<double>(hits) / set.size();
}

struct ServeResult {
  double wall_s = 0;
  double qps = 0;
  double fill = 0;
  double p50_us = 0;
  double p99_us = 0;
};

ServeResult measure_serving(const rt::CompiledModel& cm, int threads, int requests) {
  rt::ServerConfig cfg;
  cfg.threads = threads;
  cfg.max_batch = kServeBatch;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 512;
  adept::Rng rng(9);
  std::vector<std::vector<float>> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) inputs.push_back(random_sample(rng));

  // Warm up caches/thread pools on a throwaway server so the measured
  // server's stats (fill, p50/p99) cover exactly the flood below — serial
  // warm-up batches of 1 would otherwise drag the reported fill rate down.
  {
    rt::Server warm(cm, cfg);
    for (int i = 0; i < 16; ++i) {
      warm.submit(inputs[static_cast<std::size_t>(i)]).get();
    }
  }
  rt::Server server(cm, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<std::vector<float>>> futures;
  futures.reserve(inputs.size());
  for (const auto& x : inputs) futures.push_back(server.submit(x));
  for (auto& f : futures) f.get();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Read the serving telemetry straight from the metrics registry — the
  // same instruments ServerStats views, but through the export surface the
  // CI artifacts consume. The per-instance prefix keeps the warm-up
  // server's records out of the measured numbers.
  const adept::obs::MetricsSnapshot snap = adept::obs::snapshot();
  const std::string& pfx = server.metrics_prefix();
  const auto* lat = snap.find_histogram(pfx + "latency_ns");
  const auto* reqs = snap.find_counter(pfx + "requests");
  const auto* batches = snap.find_counter(pfx + "batches");
  ServeResult r;
  r.wall_s = wall;
  r.qps = requests / wall;
  r.fill = (reqs != nullptr && batches != nullptr && batches->value > 0)
               ? static_cast<double>(reqs->value) /
                     static_cast<double>(batches->value)
               : 0.0;
  r.p50_us = lat != nullptr ? lat->p50 / 1e3 : 0.0;
  r.p99_us = lat != nullptr ? lat->p99 / 1e3 : 0.0;
  return r;
}

struct OverloadResult {
  double wall_s = 0;
  double goodput_qps = 0;   // completed-before-deadline per second
  double reject_rate = 0;   // admission-refused / offered
  double shed_rate = 0;     // shed_oldest drops / offered
  double miss_rate = 0;     // deadline misses / offered
  double p99_accepted_us = 0;
};

// Offered load far beyond capacity: 4 producers flood a 2-worker server with
// a deliberately small queue and a 250 ms deadline on every request. The
// queue bound is what keeps accepted-request p99 small under reject/
// shed_oldest; under block the producers are admitted eventually and their
// submit-to-result latency grows with the whole backlog.
OverloadResult measure_overload(const rt::CompiledModel& cm,
                                rt::OverloadPolicy policy, int requests) {
  rt::ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = kServeBatch;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = kServeBatch;
  cfg.policy = policy;
  cfg.deadline_us = 250'000;
  rt::Server server(cm, cfg);

  // Pre-generated input pool so producers offer load with zero think time.
  adept::Rng rng(21);
  std::vector<std::vector<float>> pool;
  for (int i = 0; i < 32; ++i) pool.push_back(random_sample(rng));

  constexpr int kProducers = 4;
  const int per_producer = std::max(1, requests / kProducers);
  std::atomic<int> completed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<std::vector<float>>> futures;
      futures.reserve(static_cast<std::size_t>(per_producer));
      for (int i = 0; i < per_producer; ++i) {
        futures.push_back(server.submit(pool[static_cast<std::size_t>(
            (p * per_producer + i) % static_cast<int>(pool.size()))]));
      }
      for (auto& f : futures) {
        try {
          (void)f.get();
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const rt::ServingError&) {
          // rejected / shed / deadline-missed: counted by the server stats
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const adept::obs::MetricsSnapshot snap = adept::obs::snapshot();
  const std::string& pfx = server.metrics_prefix();
  auto count_of = [&](const char* name) -> double {
    const auto* c = snap.find_counter(pfx + name);
    return c != nullptr ? static_cast<double>(c->value) : 0.0;
  };
  const auto* lat = snap.find_histogram(pfx + "latency_ns");
  const double offered = static_cast<double>(kProducers * per_producer);
  OverloadResult r;
  r.wall_s = wall;
  r.goodput_qps = completed.load() / wall;
  r.reject_rate = count_of("rejected") / offered;
  r.shed_rate = count_of("shed") / offered;
  r.miss_rate = count_of("deadline_misses") / offered;
  r.p99_accepted_us = lat != nullptr ? lat->p99 / 1e3 : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int requests =
      adept::env_int("ADEPT_BENCH_SERVE_N", adept::bench_full_scale() ? 4096 : 384);

  nn::OnnModel model = make_deployable_model();

  // Short supervised run so the accuracy comparison below measures a model
  // that actually classifies (top-1 deltas on random weights are noise).
  data::DatasetSpec spec = data::DatasetSpec::mnist_like();
  spec.height = spec.width = kImage;
  spec.classes = kClasses;
  data::SyntheticDataset train(spec, 256, 1), eval_set(spec, 128, 2);
  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  nn::train_classifier(model, train, eval_set, tc);

  rt::FreezeOptions fp32_opts;                 // planned fp32 (the default)
  rt::FreezeOptions ref_opts;                  // unplanned reference chain
  ref_opts.optimize = false;
  rt::FreezeOptions quant_opts;                // planned + int8
  quant_opts.quantize_int8 = true;
  rt::CompiledModel cm = rt::CompiledModel::freeze(model, {1, kImage, kImage}, fp32_opts);
  rt::CompiledModel cm_ref = rt::CompiledModel::freeze(model, {1, kImage, kImage}, ref_opts);
  rt::CompiledModel cmq = rt::CompiledModel::freeze(model, {1, kImage, kImage}, quant_opts);

  const SingleStream ss = measure_single_stream(model, cm, cmq);
  const double speedup = ss.tape_ms / ss.compiled_ms;
  const double quant_speedup = ss.compiled_ms / ss.quant_ms;

  const double ws_planned = static_cast<double>(cm.workspace_bytes(kServeBatch));
  const double ws_unplanned = static_cast<double>(cm_ref.workspace_bytes(kServeBatch));

  const double top1_fp32 = compiled_top1(cm, eval_set);
  const double top1_int8 = compiled_top1(cmq, eval_set);
  const double top1_delta = top1_fp32 - top1_int8;

  std::string json_path;
  if (adept::bench::parse_json_flag(argc, argv, "BENCH_serve.json", &json_path)) {
    adept::bench::JsonReport report("serve");
    report.add({"single_stream",
                {{"tape_ms", ss.tape_ms},
                 {"compiled_ms", ss.compiled_ms},
                 {"speedup", speedup},
                 {"quant_ms", ss.quant_ms},
                 {"quant_speedup", quant_speedup},
                 {"wall_s", ss.compiled_ms * 1e-3}}});
    report.add({"plan",
                {{"workspace_planned_bytes", ws_planned},
                 {"workspace_unplanned_bytes", ws_unplanned},
                 {"workspace_saving", 1.0 - ws_planned / ws_unplanned},
                 {"peak_rss_bytes", peak_rss_bytes()}}});
    report.add({"accuracy",
                {{"top1_fp32", top1_fp32},
                 {"top1_int8", top1_int8},
                 {"quant_top1_delta", top1_delta},
                 {"eval_n", static_cast<double>(eval_set.size())}}});
    {
      const ServeResult r = measure_serving(cmq, 4, requests);
      report.add({"serve_quant_t4",
                  {{"qps", r.qps},
                   {"fill", r.fill},
                   {"p50_us", r.p50_us},
                   {"p99_us", r.p99_us},
                   {"requests", static_cast<double>(requests)}}});
    }
    for (rt::OverloadPolicy policy :
         {rt::OverloadPolicy::block, rt::OverloadPolicy::reject,
          rt::OverloadPolicy::shed_oldest}) {
      const OverloadResult r = measure_overload(cm, policy, requests);
      report.add({"overload_" + rt::to_string(policy),
                  {{"goodput_qps", r.goodput_qps},
                   {"reject_rate", r.reject_rate},
                   {"shed_rate", r.shed_rate},
                   {"deadline_miss_rate", r.miss_rate},
                   {"p99_accepted_us", r.p99_accepted_us},
                   {"wall_s", r.wall_s},
                   {"requests", static_cast<double>(requests)}}});
    }
    if (!report.write(json_path, adept::backend::num_threads())) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s (single-stream %.2fx, quant %.2fx, top-1 delta %.3f)\n",
                json_path.c_str(), speedup, quant_speedup, top1_delta);
    return 0;
  }

  std::printf("single-stream batch-1 latency (proxy CNN, K=8 butterfly PTC):\n");
  std::printf("  tape eval     %8.3f ms\n", ss.tape_ms);
  std::printf("  compiled      %8.3f ms   (%.2fx)\n", ss.compiled_ms, speedup);
  std::printf("  int8 quant    %8.3f ms   (%.2fx vs compiled)\n\n", ss.quant_ms,
              quant_speedup);
  std::printf("workspace @batch %d: planned %.0f bytes, unplanned %.0f bytes "
              "(%.0f%% saved); peak RSS %.1f MB\n",
              kServeBatch, ws_planned, ws_unplanned,
              100.0 * (1.0 - ws_planned / ws_unplanned),
              peak_rss_bytes() / (1024.0 * 1024.0));
  std::printf("top-1 on %d eval samples: fp32 %.3f, int8 %.3f (delta %.3f)\n\n",
              eval_set.size(), top1_fp32, top1_int8, top1_delta);

  adept::Table table({"workers", "QPS", "fill", "p50 [us]", "p99 [us]"});
  const ServeResult rq = measure_serving(cmq, 4, requests);
  table.add_row({"4 (int8)", adept::Table::fmt(rq.qps, 0),
                 adept::Table::fmt(rq.fill, 2), adept::Table::fmt(rq.p50_us, 0),
                 adept::Table::fmt(rq.p99_us, 0)});
  table.print(std::cout);

  std::printf("\noverload (4 producers, 2 workers, queue %d, 250 ms deadline):\n",
              kServeBatch);
  adept::Table overload({"policy", "goodput QPS", "reject", "shed", "miss",
                         "accepted p99 [us]"});
  for (rt::OverloadPolicy policy :
       {rt::OverloadPolicy::block, rt::OverloadPolicy::reject,
        rt::OverloadPolicy::shed_oldest}) {
    const OverloadResult r = measure_overload(cm, policy, requests);
    overload.add_row({rt::to_string(policy),
                      adept::Table::fmt(r.goodput_qps, 0),
                      adept::Table::fmt(r.reject_rate, 3),
                      adept::Table::fmt(r.shed_rate, 3),
                      adept::Table::fmt(r.miss_rate, 3),
                      adept::Table::fmt(r.p99_accepted_us, 0)});
  }
  overload.print(std::cout);
  return 0;
}
