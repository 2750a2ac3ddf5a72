//===- perfbench/src/perfbench.cpp - The repository benchmark -------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One workload per invocation:
//
//   perfbench --workload <nlp-stream|vision-stream|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--samples-out <file>]
//
// Stream workloads run one closed-loop client that sends requests
// round-robin over their models through InferenceSession::run. serve-mixed
// runs up to four closed-loop client threads against a ModelRegistry whose
// DynamicBatcher front ends serve TinyBERT and EfficientNet-B0. Everything
// uses library defaults (CompileOptions{}, SessionOptions{},
// BatcherOptions{}).
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that reports the per-layer metrics: it alternates untraced and traced
// passes (ExecutionContext::tryRun with PerBlockTiming) so the cost of
// tracing is measured, and it writes the spans the benchmark recorded
// around its own calls as a Chrome trace. serve-mixed first runs its client
// load (for the serving.* counters), then the passes.
//
// Every timed request is checked: stream outputs against a reference
// compiled with rewriting, fusion and the other optimizations off (2e-3
// relative/absolute), serve-mixed outputs bit for bit against solo batch-1
// runs. The last stdout line is the result object; the exit code is 0 only
// when every request succeeded with correct outputs.
//
//===----------------------------------------------------------------------===//

#include "BlockClass.h"
#include "Trace.h"

#include "dnnfusion/dnnfusion.h"
#include "models/ModelZoo.h"
#include "ops/KernelRegistry.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tensor/TensorUtils.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

using namespace dnnfusion;
using namespace dnnfusion::perfbench;

namespace {

/// Distinct inputs per model; requests draw from this pool.
constexpr int InputPoolSize = 4;
/// Set-up repetitions per run; setup_s is their median.
constexpr int SetupReps = 15;
/// On a shared host the cores run for half a second or more at a time at
/// half to two thirds of their speed, so the share of slow requests in a
/// run swings from run to run. A median or throughput over the whole window
/// sits on the edge between the fast and slow phases and jumps with their
/// mix. latency_p50_ms and throughput_rps are therefore taken over the
/// quiet slices of the window: of slices this long, the QuietShare (at
/// least one) that completed the most requests.
constexpr double QuietSliceSeconds = 0.3;
constexpr double QuietShare = 0.1;
/// latency_p90_ms and latency_p99_ms are medians over slices this long, so
/// a burst of contention moves a few slices, not the result.
constexpr double TailSliceSeconds = 1.0;
/// Most client threads serve-mixed starts.
constexpr unsigned MaxClients = 4;
/// Share of a traced serve-mixed run spent under client load (the rest
/// runs traced passes).
constexpr double ServeLoadShare = 0.6;
/// The documented tolerance of the fused-attention / forced-FMA
/// relaxations, used for stream outputs against the unoptimized reference.
constexpr float OutputTolerance = 2e-3f;

struct WorkloadSpec {
  const char *Name;
  std::vector<std::string> Models;
  bool Serving;
};

const std::vector<WorkloadSpec> &workloadSpecs() {
  static const std::vector<WorkloadSpec> Specs = {
      {"nlp-stream", {"GPT-2", "BERT-base", "MobileBERT"}, false},
      {"vision-stream",
       {"U-Net", "YOLO-V4", "Faster R-CNN", "EfficientNet-B0"},
       false},
      {"serve-mixed", {"TinyBERT", "EfficientNet-B0"}, true},
  };
  return Specs;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceOut;
  std::string SamplesOut;
  std::string GitSha = "unavailable";
  std::string SourceHash = "unavailable";
  bool CorruptExpected = false;
};

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

Clock::duration secondsToDuration(double S) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(S));
}

/// splitmix64 of a combined key: independent, reproducible streams.
uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B = 0) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + A * 0xbf58476d1ce4e5b9ull +
               B * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Exact percentile of \p Sorted (ascending), linear between ranks.
double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Pos = P / 100.0 * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Process high-water resident set (VmHWM), MiB.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// User + system CPU seconds of the whole process.
double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + 1e-6 * static_cast<double>(T.tv_usec);
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

/// Fixed-work calibration: a 96^3 single-threaded matrix multiply, repeated;
/// the median of five timings. Recorded before and after the measured
/// window so host contention shows up in the result; never used to
/// rescale a metric.
double calibrationMs() {
  constexpr int N = 96;
  std::vector<float> A(N * N), B(N * N), C(N * N);
  for (int I = 0; I < N * N; ++I) {
    A[static_cast<size_t>(I)] = static_cast<float>(I % 7) * 0.25f;
    B[static_cast<size_t>(I)] = static_cast<float>(I % 5) * 0.5f;
  }
  std::vector<double> Times;
  volatile float Sink = 0.0f;
  for (int Rep = 0; Rep < 5; ++Rep) {
    Clock::time_point T0 = Clock::now();
    for (int Iter = 0; Iter < 96; ++Iter) {
      std::fill(C.begin(), C.end(), 0.0f);
      for (int I = 0; I < N; ++I)
        for (int K = 0; K < N; ++K) {
          float AIK = A[static_cast<size_t>(I * N + K)];
          for (int J = 0; J < N; ++J)
            C[static_cast<size_t>(I * N + J)] +=
                AIK * B[static_cast<size_t>(K * N + J)];
        }
      Sink = Sink + C[static_cast<size_t>(Iter % N)];
    }
    Times.push_back(msBetween(T0, Clock::now()));
  }
  return median(Times);
}

std::vector<Tensor> makeInputs(const ModelSignature &Sig, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> In;
  for (const TensorSpec &Spec : Sig.Inputs) {
    Tensor T(Spec.Sh, Spec.Ty);
    fillRandom(T, R, 0.2f, 1.0f);
    In.push_back(std::move(T));
  }
  return In;
}

/// True when \p Got matches \p Want: bit for bit when \p Exact, else within
/// OutputTolerance relative/absolute.
bool outputsMatch(const std::vector<Tensor> &Got,
                  const std::vector<Tensor> &Want, bool Exact) {
  if (Got.size() != Want.size())
    return false;
  for (size_t I = 0; I < Got.size(); ++I) {
    if (!(Got[I].shape() == Want[I].shape()))
      return false;
    if (Exact ? std::memcmp(Got[I].data(), Want[I].data(),
                            Want[I].byteSize()) != 0
              : !allClose(Got[I], Want[I], OutputTolerance, OutputTolerance))
      return false;
  }
  return true;
}

/// Request outcomes of one model (or one client's share of it).
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< Error Status (execution failure or shed).
  uint64_t Wrong = 0;  ///< Outputs that did not match the expectation.
  std::string FirstError;

  /// Counts one request against \p Want; true when it succeeded with
  /// matching outputs.
  bool record(const Expected<std::vector<Tensor>> &Out,
              const std::vector<Tensor> &Want, bool Exact) {
    ++Attempted;
    if (!Out.ok()) {
      ++Failed;
      if (FirstError.empty())
        FirstError = Out.status().toString();
      return false;
    }
    if (!outputsMatch(Out.value(), Want, Exact)) {
      ++Wrong;
      if (FirstError.empty())
        FirstError = "output does not match the expected output";
      return false;
    }
    return true;
  }

  void add(const Outcome &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
    Wrong += O.Wrong;
    if (FirstError.empty())
      FirstError = O.FirstError;
  }
};

/// One successful timed request.
struct Sample {
  Clock::time_point Start;
  double Ms;
};

/// One model of the workload with its input pool and expected outputs.
struct ModelState {
  std::string Name;
  std::vector<std::vector<Tensor>> Inputs;
  std::vector<std::vector<Tensor>> Want; ///< Expected outputs per input.
  bool Exact = false;
  std::vector<Sample> Samples; ///< Client-side, one per successful request.
  Outcome Counts;
};

/// Compile-time statistics of one set-up repetition, summed over models.
struct CompileTotals {
  double RewriteMs = 0, PlanMs = 0, CodegenMs = 0;
  int64_t Blocks = 0;
  int64_t Rewrites = 0;

  void add(const CompiledModel &M) {
    RewriteMs += M.RewriteMs;
    PlanMs += M.FusionPlanMs;
    CodegenMs += M.CodegenMs;
    Blocks += static_cast<int64_t>(M.Blocks.size());
    Rewrites += M.RewriteInfo.Applications;
  }
};

//===----------------------------------------------------------------------===//
// Reference outputs (not part of set-up time)
//===----------------------------------------------------------------------===//

/// Fills every model's input pool and expected outputs. Stream models are
/// checked against an unoptimized compile run sequentially; serving models
/// against solo batch-1 runs of the default compile.
Status buildExpectations(std::vector<ModelState> &Models, bool Serving,
                         uint64_t Seed) {
  for (size_t MI = 0; MI < Models.size(); ++MI) {
    ModelState &M = Models[MI];
    M.Exact = Serving;
    CompileOptions Opt;
    ExecutionOptions Exec;
    if (!Serving) {
      Opt.EnableGraphRewriting = false;
      Opt.EnableFusion = false;
      Opt.EnableOtherOpts = false;
      Exec.Mode = ExecutionOptions::Schedule::Sequential;
    }
    Graph G = Serving ? buildModelBatched(M.Name, 1) : buildModel(M.Name);
    Expected<CompiledModel> Ref = compileModel(std::move(G), Opt);
    if (!Ref.ok())
      return Ref.status();
    ExecutionContext Ctx(Ref.value(), Exec);
    for (int I = 0; I < InputPoolSize; ++I) {
      M.Inputs.push_back(makeInputs(Ref.value().Signature,
                                    mixSeed(Seed, MI, static_cast<uint64_t>(I))));
      Expected<std::vector<Tensor>> Out = Ctx.tryRun(M.Inputs.back());
      if (!Out.ok())
        return Out.status();
      M.Want.push_back(Out.takeValue());
    }
  }
  return Status();
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// The system under test for one workload, rebuilt by every set-up rep.
struct System {
  std::vector<std::unique_ptr<InferenceSession>> Sessions;  ///< Streams.
  std::unique_ptr<ModelRegistry> Registry;                  ///< Serving.
  std::vector<std::shared_ptr<DynamicBatcher>> Batchers;    ///< Serving.

  const CompiledModel &model(size_t MI) const {
    return Sessions.empty() ? Batchers[MI]->model() : Sessions[MI]->model();
  }
};

/// Submits concurrent waves until every bucket of \p B's ladder above 1 has
/// been compiled (bounded; a bucket still cold shows up as
/// serving.variant_compiles during the measured window).
void warmBuckets(DynamicBatcher &B, const std::vector<Tensor> &In) {
  std::vector<int64_t> Waves;
  for (int64_t Size : B.options().BatchSizes)
    if (Size > 1 && Size <= B.options().MaxBatchSize)
      Waves.push_back(Size);
  std::sort(Waves.rbegin(), Waves.rend());
  for (int Attempt = 0;
       Attempt < 10 && B.stats().VariantCompiles < Waves.size(); ++Attempt)
    for (int64_t Wave : Waves) {
      std::vector<std::thread> Threads;
      for (int64_t C = 0; C < Wave; ++C)
        Threads.emplace_back([&] { (void)B.submit(In); });
      for (std::thread &T : Threads)
        T.join();
    }
}

/// Builds the system once: compile, session/batcher creation, warm-up.
Status setUp(const WorkloadSpec &W, const std::vector<ModelState> &Models,
             System &Sys, CompileTotals &Totals, SpanBuffer &Spans) {
  if (W.Serving) {
    Sys.Registry = std::make_unique<ModelRegistry>(RegistryOptions{});
    for (const ModelState &M : Models) {
      Clock::time_point T0 = Clock::now();
      std::string Name = M.Name;
      Status S = Sys.Registry->load(
          Name, [Name](int64_t Batch) { return buildModelBatched(Name, Batch); });
      if (!S.ok())
        return S;
      Expected<std::shared_ptr<DynamicBatcher>> B = Sys.Registry->acquire(Name);
      if (!B.ok())
        return B.status();
      Sys.Batchers.push_back(B.takeValue());
      Spans.add("compile", M.Name, T0, Clock::now());
    }
    for (size_t MI = 0; MI < Models.size(); ++MI) {
      Clock::time_point T0 = Clock::now();
      warmBuckets(*Sys.Batchers[MI], Models[MI].Inputs[0]);
      Spans.add("warmup", Models[MI].Name, T0, Clock::now());
      Totals.add(Sys.Batchers[MI]->model());
    }
    return Status();
  }
  for (const ModelState &M : Models) {
    Clock::time_point T0 = Clock::now();
    Expected<CompiledModel> C = compileModel(buildModel(M.Name));
    if (!C.ok())
      return C.status();
    Totals.add(C.value());
    Sys.Sessions.push_back(std::make_unique<InferenceSession>(C.takeValue()));
    Clock::time_point T1 = Clock::now();
    Spans.add("compile", M.Name, T0, T1);
    Expected<std::vector<Tensor>> Warm = Sys.Sessions.back()->run(M.Inputs[0]);
    if (!Warm.ok())
      return Warm.status();
    Spans.add("warmup", M.Name, T1, Clock::now());
  }
  return Status();
}

//===----------------------------------------------------------------------===//
// Measured loops
//===----------------------------------------------------------------------===//

/// The single closed-loop stream client: round-robin over the models, each
/// request on a seeded pool input, until \p Seconds have passed (whole
/// rounds only). Returns the window in seconds.
double runStream(System &Sys, std::vector<ModelState> &Models, uint64_t Seed,
                 double Seconds, Clock::time_point Start, SpanBuffer &Spans,
                 uint64_t &NextRequest) {
  Rng R(mixSeed(Seed, 0x5757));
  Clock::time_point Deadline = Start + secondsToDuration(Seconds);
  Clock::time_point Now = Start;
  while (Now < Deadline) {
    for (size_t MI = 0; MI < Models.size(); ++MI) {
      ModelState &M = Models[MI];
      size_t I = R.nextBelow(InputPoolSize);
      uint64_t Id = ++NextRequest;
      Clock::time_point T0 = Clock::now();
      Expected<std::vector<Tensor>> Out = Sys.Sessions[MI]->run(M.Inputs[I]);
      Clock::time_point T1 = Clock::now();
      if (M.Counts.record(Out, M.Want[I], M.Exact))
        M.Samples.push_back({T0, msBetween(T0, T1)});
      Now = Clock::now();
      Spans.add("request", M.Name, T0, Now, Id);
      Spans.add("run", M.Name, T0, T1, Id);
    }
  }
  return msBetween(Start, Clock::now()) / 1000.0;
}

/// Per-client results of the serving load.
struct ClientLog {
  std::vector<std::vector<Sample>> Samples;
  std::vector<Outcome> Counts;
  SpanBuffer Spans;

  ClientLog(size_t NumModels, bool TraceOn, unsigned Tid)
      : Samples(NumModels), Counts(NumModels), Spans(TraceOn, Tid) {}
};

/// serve-mixed: \p Clients closed-loop threads, each drawing model and
/// input from its own seeded stream, for \p Seconds. Returns the window.
double runServing(System &Sys, std::vector<ModelState> &Models, uint64_t Seed,
                  double Seconds, Clock::time_point Start, unsigned Clients,
                  bool TraceOn, std::vector<std::unique_ptr<ClientLog>> &Logs,
                  std::atomic<uint64_t> &NextRequest) {
  std::atomic<bool> Stop{false};
  for (unsigned C = 0; C < Clients; ++C)
    Logs.push_back(std::make_unique<ClientLog>(Models.size(), TraceOn, C + 1));
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientLog &Log = *Logs[C];
      Rng R(mixSeed(Seed, 0x5e7e, C));
      while (!Stop.load(std::memory_order_relaxed)) {
        size_t MI = R.nextBelow(Models.size());
        size_t I = R.nextBelow(InputPoolSize);
        const ModelState &M = Models[MI];
        uint64_t Id = NextRequest.fetch_add(1, std::memory_order_relaxed) + 1;
        Clock::time_point T0 = Clock::now();
        Expected<std::vector<Tensor>> Out = Sys.Batchers[MI]->submit(M.Inputs[I]);
        Clock::time_point T1 = Clock::now();
        if (Log.Counts[MI].record(Out, M.Want[I], M.Exact))
          Log.Samples[MI].push_back({T0, msBetween(T0, T1)});
        Log.Spans.add("request", M.Name, T0, T1, Id);
      }
    });
  std::this_thread::sleep_for(secondsToDuration(Seconds));
  Stop = true;
  for (std::thread &T : Threads)
    T.join();
  double Window = msBetween(Start, Clock::now()) / 1000.0;
  for (const std::unique_ptr<ClientLog> &Log : Logs)
    for (size_t MI = 0; MI < Models.size(); ++MI) {
      Models[MI].Counts.add(Log->Counts[MI]);
      Models[MI].Samples.insert(Models[MI].Samples.end(),
                                Log->Samples[MI].begin(),
                                Log->Samples[MI].end());
    }
  return Window;
}

/// Successful requests cut into slices of about \p SliceSeconds by start
/// time: [slice][model] -> latencies (ms).
struct Slices {
  double SliceSec = 0;
  std::vector<std::vector<std::vector<double>>> Lat;

  Slices(const std::vector<ModelState> &Models, Clock::time_point Start,
         double WindowSec, double SliceSeconds) {
    int N = std::max(1, static_cast<int>(std::lround(WindowSec / SliceSeconds)));
    SliceSec = WindowSec / N;
    Lat.assign(static_cast<size_t>(N),
               std::vector<std::vector<double>>(Models.size()));
    for (size_t MI = 0; MI < Models.size(); ++MI)
      for (const Sample &S : Models[MI].Samples) {
        int W = static_cast<int>(msBetween(Start, S.Start) / 1000.0 / SliceSec);
        Lat[static_cast<size_t>(std::clamp(W, 0, N - 1))][MI].push_back(S.Ms);
      }
  }

  /// True when slice \p I holds a request of every model.
  bool full(size_t I) const {
    for (const std::vector<double> &L : Lat[I])
      if (L.empty())
        return false;
    return true;
  }

  size_t requests(size_t I) const {
    size_t Count = 0;
    for (const std::vector<double> &L : Lat[I])
      Count += L.size();
    return Count;
  }
};

/// Geometric mean over models of each model's exact percentile \p P.
double geomeanPercentile(std::vector<std::vector<double>> PerModel, double P) {
  std::vector<double> Ps;
  for (std::vector<double> &L : PerModel) {
    std::sort(L.begin(), L.end());
    Ps.push_back(percentile(L, P));
  }
  return geomean(Ps);
}

/// End-to-end latency and throughput. Every latency is the geometric mean
/// over the workload's models of each model's exact client-side percentile.
/// p50 and throughput come from the requests of the quiet slices, pooled;
/// p90 and p99 are medians over the tail slices. Slices missing a model
/// are skipped.
struct EndToEnd {
  double P50 = 0, P90 = 0, P99 = 0, Rps = 0;
  int QuietSlices = 0, TailSlices = 0;
};

EndToEnd endToEnd(const std::vector<ModelState> &Models,
                  Clock::time_point Start, double WindowSec) {
  EndToEnd E;
  Slices Quiet(Models, Start, WindowSec, QuietSliceSeconds);
  std::vector<std::pair<size_t, size_t>> ByCount; // (requests, slice)
  for (size_t I = 0; I < Quiet.Lat.size(); ++I)
    if (Quiet.full(I))
      ByCount.push_back({Quiet.requests(I), I});
  std::sort(ByCount.rbegin(), ByCount.rend());
  size_t Take = std::min(
      ByCount.size(),
      std::max<size_t>(1, static_cast<size_t>(std::lround(
                              QuietShare * static_cast<double>(ByCount.size())))));
  if (Take > 0) {
    std::vector<std::vector<double>> Pooled(Models.size());
    size_t Requests = 0;
    for (size_t Q = 0; Q < Take; ++Q) {
      size_t I = ByCount[Q].second;
      Requests += Quiet.requests(I);
      for (size_t MI = 0; MI < Models.size(); ++MI)
        Pooled[MI].insert(Pooled[MI].end(), Quiet.Lat[I][MI].begin(),
                          Quiet.Lat[I][MI].end());
    }
    E.P50 = geomeanPercentile(std::move(Pooled), 50);
    E.Rps = static_cast<double>(Requests) /
            (static_cast<double>(Take) * Quiet.SliceSec);
  }
  E.QuietSlices = static_cast<int>(Take);

  Slices Tail(Models, Start, WindowSec, TailSliceSeconds);
  std::vector<double> P90, P99;
  for (size_t I = 0; I < Tail.Lat.size(); ++I)
    if (Tail.full(I)) {
      P90.push_back(geomeanPercentile(Tail.Lat[I], 90));
      P99.push_back(geomeanPercentile(Tail.Lat[I], 99));
    }
  E.P90 = median(P90);
  E.P99 = median(P99);
  E.TailSlices = static_cast<int>(P90.size());
  return E;
}

/// Per-layer accumulation over traced passes (one request per model each).
struct LayerTotals {
  int64_t Passes = 0;
  std::vector<double> TracedPassMs, UntracedPassMs;
  std::array<double, NumBlockClasses> ClassMs{};
  std::array<double, NumBlockClasses> ClassFlops{};
  double BlockSumMs = 0;
  double MainBytes = 0, ScratchBytes = 0;
  double PrepackHits = 0, PrepackMisses = 0;
  double PeakArenaBytes = 0; ///< One pass: every model's arena.
  double CpuPerWall = 0;
};

/// Alternates untraced and traced passes over fresh ExecutionContexts (the
/// session's ExecutionOptions) until \p Seconds have passed. Outputs are
/// checked like any timed request; a failed request adds no layer figures.
void runTracedPasses(const System &Sys, std::vector<ModelState> &Models,
                       uint64_t Seed, double Seconds, LayerTotals &L,
                       SpanBuffer &Spans, uint64_t &NextRequest) {
  std::vector<std::unique_ptr<ExecutionContext>> Contexts;
  std::vector<std::array<double, NumBlockClasses>> ModelClassFlops;
  for (size_t MI = 0; MI < Models.size(); ++MI) {
    const CompiledModel &CM = Sys.model(MI);
    Contexts.push_back(
        std::make_unique<ExecutionContext>(CM, SessionOptions{}.Exec));
    std::vector<double> Flops(CM.BlockFlops.begin(), CM.BlockFlops.end());
    ModelClassFlops.push_back(sumByClass(CM.Blocks, Flops));
  }
  Rng R(mixSeed(Seed, 0x7ace));
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = Start + secondsToDuration(Seconds);
  double Cpu0 = processCpuSeconds();
  for (int64_t Pass = 0; Pass < 2 || Clock::now() < Deadline; ++Pass) {
    bool Traced = Pass % 2 == 1;
    double PassMs = 0;
    double PassArena = 0;
    for (size_t MI = 0; MI < Models.size(); ++MI) {
      ModelState &M = Models[MI];
      size_t I = R.nextBelow(InputPoolSize);
      uint64_t Id = ++NextRequest;
      ExecutionStats Stats;
      Clock::time_point T0 = Clock::now();
      Expected<std::vector<Tensor>> Out =
          Traced ? Contexts[MI]->tryRun(M.Inputs[I], &Stats, true)
                 : Contexts[MI]->tryRun(M.Inputs[I]);
      Clock::time_point T1 = Clock::now();
      PassMs += msBetween(T0, T1);
      bool Ok = M.Counts.record(Out, M.Want[I], M.Exact);
      Spans.add(Traced ? "run.traced" : "run", M.Name, T0, T1, Id);
      Spans.add("request", M.Name, T0, Clock::now(), Id);
      if (!Ok || !Traced)
        continue;
      const CompiledModel &CM = Sys.model(MI);
      std::array<double, NumBlockClasses> Cls =
          sumByClass(CM.Blocks, Stats.PerBlockMs);
      for (int C = 0; C < NumBlockClasses; ++C) {
        L.ClassMs[static_cast<size_t>(C)] += Cls[static_cast<size_t>(C)];
        L.ClassFlops[static_cast<size_t>(C)] +=
            ModelClassFlops[MI][static_cast<size_t>(C)];
      }
      for (double Ms : Stats.PerBlockMs)
        L.BlockSumMs += Ms;
      L.MainBytes += static_cast<double>(Stats.MainBytesRead +
                                         Stats.MainBytesWritten);
      L.ScratchBytes += static_cast<double>(Stats.ScratchBytes);
      L.PrepackHits += static_cast<double>(Stats.Engine.PrepackHits);
      L.PrepackMisses += static_cast<double>(Stats.Engine.PrepackMisses);
      PassArena += static_cast<double>(Stats.PeakArenaBytes);
    }
    if (Traced) {
      ++L.Passes;
      L.TracedPassMs.push_back(PassMs);
      L.PeakArenaBytes = PassArena;
    } else {
      L.UntracedPassMs.push_back(PassMs);
    }
  }
  double Wall = msBetween(Start, Clock::now()) / 1000.0;
  L.CpuPerWall = (processCpuSeconds() - Cpu0) / Wall;
}

/// Histogram \p After minus \p Before (both monotonic snapshots).
LatencyHistogram histogramDelta(const LatencyHistogram &After,
                                const LatencyHistogram &Before) {
  LatencyHistogram D = After;
  for (size_t I = 0; I < D.Buckets.size(); ++I)
    D.Buckets[I] -= Before.Buckets[I];
  D.Count -= Before.Count;
  D.SumMicros -= Before.SumMicros;
  return D;
}

/// serving.* layer metrics over the measured window, summed across models.
struct ServingDelta {
  LatencyHistogram Queue, Exec;
  uint64_t Served = 0, Batches = 0, Shed = 0, VariantCompiles = 0,
           BreakerTrips = 0;

  void add(const ServingStats &After, const ServingStats &Before) {
    Queue.add(histogramDelta(After.QueueMicros, Before.QueueMicros));
    Exec.add(histogramDelta(After.Sessions.ExecMicros,
                            Before.Sessions.ExecMicros));
    Served += After.Served - Before.Served;
    Batches += After.BatchesExecuted - Before.BatchesExecuted;
    Shed += (After.ShedQueueFull - Before.ShedQueueFull) +
            (After.ShedDeadline - Before.ShedDeadline) +
            (After.ShedShutdown - Before.ShedShutdown);
    VariantCompiles += After.VariantCompiles - Before.VariantCompiles;
    BreakerTrips += After.BreakerTrips - Before.BreakerTrips;
  }
};

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         jsonNumber(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  return S + "}";
}

/// Writes every successful timed request as "<model index> <start ms into
/// the window> <latency ms>", one per line, for offline analysis.
bool writeSamples(const std::string &Path, const std::vector<ModelState> &Models,
                  Clock::time_point WindowStart) {
  std::ofstream Out(Path);
  for (size_t MI = 0; MI < Models.size(); ++MI)
    for (const Sample &S : Models[MI].Samples)
      Out << MI << ' ' << msBetween(WindowStart, S.Start) << ' ' << S.Ms << '\n';
  return static_cast<bool>(Out);
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (K == "--corrupt-expected") {
      A.CorruptExpected = true;
    } else if (!(V = Next())) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", K.c_str());
      return false;
    } else if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V, nullptr, 10);
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V, nullptr);
    } else if (K == "--trace") {
      A.Trace = std::strcmp(V, "0") != 0;
    } else if (K == "--trace-out") {
      A.TraceOut = V;
    } else if (K == "--samples-out") {
      A.SamplesOut = V;
    } else if (K == "--git-sha") {
      A.GitSha = V;
    } else if (K == "--source-hash") {
      A.SourceHash = V;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", K.c_str());
      return false;
    }
  }
  return A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;
  const WorkloadSpec *W = nullptr;
  for (const WorkloadSpec &S : workloadSpecs())
    if (A.Workload == S.Name)
      W = &S;
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build (configure with "
                 "-DCMAKE_BUILD_TYPE=Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Clock::time_point Origin = Clock::now();
  SpanBuffer MainSpans(A.Trace, 0);
  double CalibBefore = calibrationMs();

  std::vector<ModelState> Models;
  for (const std::string &Name : W->Models) {
    Models.emplace_back();
    Models.back().Name = Name;
  }
  Clock::time_point RefStart = Clock::now();
  Status S = buildExpectations(Models, W->Serving, A.Seed);
  double ReferenceSec = msBetween(RefStart, Clock::now()) / 1000.0;
  if (!S.ok()) {
    std::fprintf(stderr, "perfbench: reference outputs: %s\n",
                 S.toString().c_str());
    return 1;
  }
  if (A.CorruptExpected)
    Models[0].Want[0][0].data()[0] += 1.0f;
  double ReferenceRssMb = peakRssMb();

  // Set-up, repeated; the last repetition's system is measured.
  System Sys;
  std::vector<double> SetupSec;
  std::vector<CompileTotals> Compiles;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Sys = System();
    Compiles.emplace_back();
    Clock::time_point T0 = Clock::now();
    S = setUp(*W, Models, Sys, Compiles.back(), MainSpans);
    Clock::time_point T1 = Clock::now();
    if (!S.ok()) {
      std::fprintf(stderr, "perfbench: set-up: %s\n", S.toString().c_str());
      return 1;
    }
    SetupSec.push_back(msBetween(T0, T1) / 1000.0);
    MainSpans.add("setup", W->Name, T0, T1);
  }

  unsigned Clients = std::max(
      1u, std::min(MaxClients, std::thread::hardware_concurrency()));
  uint64_t NextRequest = 0;
  std::atomic<uint64_t> NextServingRequest{0};
  std::vector<std::unique_ptr<ClientLog>> ClientLogs;
  double Window = 0;
  double CpuPerWall = 0;
  LayerTotals Layers;
  ServingDelta Serving;

  std::vector<ServingStats> Before;
  for (const std::shared_ptr<DynamicBatcher> &B : Sys.Batchers)
    Before.push_back(B->stats());
  double Cpu0 = processCpuSeconds();
  Clock::time_point WindowStart = Clock::now();
  if (W->Serving) {
    double LoadSec = A.Trace ? A.Seconds * ServeLoadShare : A.Seconds;
    Window = runServing(Sys, Models, A.Seed, LoadSec, WindowStart, Clients,
                        A.Trace, ClientLogs, NextServingRequest);
    CpuPerWall = (processCpuSeconds() - Cpu0) / Window;
    for (size_t MI = 0; MI < Sys.Batchers.size(); ++MI)
      Serving.add(Sys.Batchers[MI]->stats(), Before[MI]);
    NextRequest = NextServingRequest.load();
  } else if (!A.Trace) {
    Window = runStream(Sys, Models, A.Seed, A.Seconds, WindowStart, MainSpans,
                       NextRequest);
    CpuPerWall = (processCpuSeconds() - Cpu0) / Window;
  }
  if (A.Trace) {
    double PassSec = W->Serving ? A.Seconds * (1.0 - ServeLoadShare) : A.Seconds;
    runTracedPasses(Sys, Models, A.Seed, PassSec, Layers, MainSpans,
                    NextRequest);
    if (!W->Serving)
      CpuPerWall = Layers.CpuPerWall;
  }
  double CalibAfter = calibrationMs();

  // Outcomes, and each model's exact percentiles over the whole window.
  Outcome Total;
  std::string ModelRows;
  for (const ModelState &M : Models) {
    Total.add(M.Counts);
    if (!M.Counts.FirstError.empty())
      std::fprintf(stderr, "perfbench: %s: %llu failed, %llu wrong; first: %s\n",
                   M.Name.c_str(),
                   static_cast<unsigned long long>(M.Counts.Failed),
                   static_cast<unsigned long long>(M.Counts.Wrong),
                   M.Counts.FirstError.c_str());
    std::vector<double> Lat;
    for (const Sample &S : M.Samples)
      Lat.push_back(S.Ms);
    std::sort(Lat.begin(), Lat.end());
    ModelRows += (ModelRows.empty() ? "" : ", ") + std::string("{\"model\": \"") +
                 M.Name + "\", \"samples\": " +
                 std::to_string(Lat.size()) + ", \"attempted\": " +
                 std::to_string(M.Counts.Attempted) + ", \"failed\": " +
                 std::to_string(M.Counts.Failed) + ", \"wrong\": " +
                 std::to_string(M.Counts.Wrong) + ", \"p50_ms\": " +
                 jsonNumber(percentile(Lat, 50)) + ", \"p90_ms\": " +
                 jsonNumber(percentile(Lat, 90)) + ", \"p99_ms\": " +
                 jsonNumber(percentile(Lat, 99)) + "}";
  }
  uint64_t Failed = Total.Failed + Total.Wrong;
  bool Correct = Total.Attempted > 0 && Failed == 0;

  std::vector<double> Rewrite, Plan, Codegen;
  for (const CompileTotals &C : Compiles) {
    Rewrite.push_back(C.RewriteMs);
    Plan.push_back(C.PlanMs);
    Codegen.push_back(C.CodegenMs);
  }

  std::vector<Metric> Ms;
  EndToEnd E;
  if (!A.Trace) {
    E = endToEnd(Models, WindowStart, Window);
    Ms = {{"latency_p50_ms", E.P50, "ms"},
          {"latency_p90_ms", E.P90, "ms"},
          {"latency_p99_ms", E.P99, "ms"},
          {"throughput_rps", E.Rps, "1/s"},
          {"setup_s", median(SetupSec), "s"},
          {"peak_rss_mb", peakRssMb(), "MiB"}};
  } else {
    double Passes = static_cast<double>(std::max<int64_t>(Layers.Passes, 1));
    auto ClassMs = [&](BlockClass C) {
      return Layers.ClassMs[static_cast<size_t>(C)] / Passes;
    };
    auto ClassGflops = [&](BlockClass C) {
      double Ms = Layers.ClassMs[static_cast<size_t>(C)];
      return Ms > 0 ? Layers.ClassFlops[static_cast<size_t>(C)] / (Ms * 1e6)
                    : 0.0;
    };
    double PrepackCalls = Layers.PrepackHits + Layers.PrepackMisses;
    double PassMs = median(Layers.TracedPassMs);
    double UntracedMs = median(Layers.UntracedPassMs);
    double BlockSumMs = Layers.BlockSumMs / Passes;
    auto HistMs = [](const LatencyHistogram &H, double P) {
      return H.percentile(P) / 1000.0;
    };
    Ms = {
        {"ops.gemm_ms", ClassMs(BlockClass::Gemm), "ms"},
        {"ops.attention_ms", ClassMs(BlockClass::Attention), "ms"},
        {"ops.norm_ms", ClassMs(BlockClass::Norm), "ms"},
        {"ops.conv_ms", ClassMs(BlockClass::Conv), "ms"},
        {"ops.pool_ms", ClassMs(BlockClass::Pool), "ms"},
        {"ops.eltwise_ms", ClassMs(BlockClass::Eltwise), "ms"},
        {"ops.gemm_gflops", ClassGflops(BlockClass::Gemm), "GFLOP/s"},
        {"ops.conv_gflops", ClassGflops(BlockClass::Conv), "GFLOP/s"},
        {"ops.attention_gflops", ClassGflops(BlockClass::Attention), "GFLOP/s"},
        {"ops.main_mb", Layers.MainBytes / Passes / 1e6, "MB"},
        {"ops.scratch_mb", Layers.ScratchBytes / Passes / 1e6, "MB"},
        {"ops.prepack_hit_rate",
         PrepackCalls > 0 ? Layers.PrepackHits / PrepackCalls : 0.0,
         "fraction"},
        {"support.cpu_per_wall", CpuPerWall, "cpu_s/s"},
        {"runtime.pass_ms", PassMs, "ms"},
        {"runtime.block_sum_ms", BlockSumMs, "ms"},
        {"runtime.overlap", PassMs > 0 ? BlockSumMs / PassMs : 0.0, "ratio"},
        {"runtime.peak_arena_mb", Layers.PeakArenaBytes / 1e6, "MB"},
        {"runtime.trace_overhead_pct",
         UntracedMs > 0 ? 100.0 * (PassMs - UntracedMs) / UntracedMs : 0.0,
         "%"},
        {"core.rewrite_ms", median(Rewrite), "ms"},
        {"core.plan_ms", median(Plan), "ms"},
        {"core.codegen_ms", median(Codegen), "ms"},
        {"core.blocks", static_cast<double>(Compiles.back().Blocks), "count"},
        {"core.rewrites_applied", static_cast<double>(Compiles.back().Rewrites),
         "count"},
        {"serving.queue_p50_ms", HistMs(Serving.Queue, 50), "ms"},
        {"serving.queue_p99_ms", HistMs(Serving.Queue, 99), "ms"},
        {"serving.exec_p50_ms", HistMs(Serving.Exec, 50), "ms"},
        {"serving.mean_batch",
         Serving.Batches ? static_cast<double>(Serving.Served) /
                               static_cast<double>(Serving.Batches)
                         : 0.0,
         "requests"},
        {"serving.shed", static_cast<double>(Serving.Shed), "count"},
        {"serving.variant_compiles",
         static_cast<double>(Serving.VariantCompiles), "count"},
        {"serving.breaker_trips", static_cast<double>(Serving.BreakerTrips),
         "count"},
    };
  }

  if (!A.SamplesOut.empty() && !writeSamples(A.SamplesOut, Models, WindowStart)) {
    std::fprintf(stderr, "perfbench: cannot write samples %s\n",
                 A.SamplesOut.c_str());
    return 1;
  }
  if (A.Trace && !A.TraceOut.empty()) {
    std::vector<const SpanBuffer *> Buffers = {&MainSpans};
    for (const std::unique_ptr<ClientLog> &Log : ClientLogs)
      Buffers.push_back(&Log->Spans);
    if (!writeChromeTrace(A.TraceOut, Origin, Buffers)) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                   A.TraceOut.c_str());
      return 1;
    }
  }

  uint32_t Features = detectCpuFeatures();
  std::string SetupList;
  for (double Sec : SetupSec)
    SetupList += (SetupList.empty() ? "" : ", ") + jsonNumber(Sec);
  std::printf("{\"models\": [%s]}\n", ModelRows.c_str());
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"source_hash\": \"%s\", "
      "\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"build_type\": \"%s\", "
      "\"cpu_model\": \"%s\", \"host_cpus\": %u, \"avx2\": %s, \"fma\": %s, "
      "\"kernel_tier\": \"%s\", \"pool_threads\": %u, \"clients\": %u, "
      "\"window_s\": %s, \"quiet_slices\": %d, \"tail_slices\": %d, "
      "\"cpu_per_wall\": %s, \"calibration_before_ms\": %s, "
      "\"calibration_after_ms\": %s, \"reference_phase_rss_mb\": %s, "
      "\"failed_fraction\": %s, \"serving_histogram_bucket_width_pct\": %s, "
      "\"reference_s\": %s, \"setup_reps_s\": [%s]}}\n",
      W->Name, static_cast<unsigned long long>(A.Seed),
      jsonNumber(A.Seconds).c_str(), A.Trace ? 1 : 0, A.GitSha.c_str(),
      A.SourceHash.c_str(), PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
      PERFBENCH_BUILD_TYPE, cpuModel().c_str(),
      std::thread::hardware_concurrency(),
      (Features & CpuFeatureAvx2) ? "true" : "false",
      (Features & CpuFeatureFma) ? "true" : "false",
      kernelLevelName(effectiveKernelLevel(CompileOptions{}.Codegen.Kernels)),
      ThreadPool::global().numThreads(), W->Serving ? Clients : 1u,
      jsonNumber(Window).c_str(), E.QuietSlices, E.TailSlices,
      jsonNumber(CpuPerWall).c_str(),
      jsonNumber(CalibBefore).c_str(), jsonNumber(CalibAfter).c_str(),
      jsonNumber(ReferenceRssMb).c_str(),
      jsonNumber(Total.Attempted ? static_cast<double>(Failed) /
                                       static_cast<double>(Total.Attempted)
                                 : 1.0)
          .c_str(),
      jsonNumber(100.0 * (std::exp2(0.25) - 1.0)).c_str(),
      jsonNumber(ReferenceSec).c_str(), SetupList.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Total.Attempted),
              static_cast<unsigned long long>(Failed),
              metricsJson(Ms).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
