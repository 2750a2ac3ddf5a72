//===- perfbench/src/Trace.h - In-memory spans, Chrome trace output -*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into the library
/// (compile, request, model run). Each thread appends to its own
/// SpanBuffer, so recording takes no lock; buffers are merged and written
/// as Chrome trace-event JSON (chrome://tracing, Perfetto) when the run
/// ends. A disabled buffer records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_PERFBENCH_TRACE_H
#define DNNFUSION_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dnnfusion {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One closed interval. Spans of one request share RequestId (0 = not part
/// of a request).
struct Span {
  std::string Name;
  std::string Model;
  Clock::time_point Start;
  Clock::time_point End;
  unsigned Tid = 0;
  uint64_t RequestId = 0;
};

/// Per-thread span list.
class SpanBuffer {
public:
  SpanBuffer(bool Enabled, unsigned Tid) : Enabled(Enabled), Tid(Tid) {}

  void add(std::string Name, std::string Model, Clock::time_point Start,
           Clock::time_point End, uint64_t RequestId = 0) {
    if (Enabled)
      Spans.push_back(
          {std::move(Name), std::move(Model), Start, End, Tid, RequestId});
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  unsigned Tid;
  std::vector<Span> Spans;
};

/// Writes every span of \p Buffers as Chrome "complete" events, timestamps
/// in microseconds relative to \p Origin. Returns false when the file
/// cannot be written.
inline bool writeChromeTrace(const std::string &Path, Clock::time_point Origin,
                             const std::vector<const SpanBuffer *> &Buffers) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Micros = [](Clock::duration D) {
    return std::chrono::duration<double, std::micro>(D).count();
  };
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool First = true;
  for (const SpanBuffer *B : Buffers)
    for (const Span &S : B->spans()) {
      std::fprintf(F,
                   "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                   "\"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": "
                   "%.3f, \"args\": {\"model\": \"%s\", \"request\": %llu}}",
                   First ? "" : ",", S.Name.c_str(), S.Tid,
                   Micros(S.Start - Origin), Micros(S.End - S.Start),
                   S.Model.c_str(),
                   static_cast<unsigned long long>(S.RequestId));
      First = false;
    }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
} // namespace dnnfusion

#endif // DNNFUSION_PERFBENCH_TRACE_H
