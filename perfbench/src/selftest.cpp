//===- perfbench/src/selftest.cpp - Block-classifier checks ---------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Compiles every model of the zoo with default options and checks that
//  - every block gets exactly one class, and the class agrees with the
//    ranked classes of the block's steps;
//  - the per-class sums of one traced run's PerBlockMs add up to the sum
//    over all blocks (runtime.block_sum_ms), and the per-class FLOPs to
//    the model's total.
// Exit code 0 when every check holds.
//
//===----------------------------------------------------------------------===//

#include "BlockClass.h"

#include "dnnfusion/dnnfusion.h"
#include "models/ModelZoo.h"
#include "support/Rng.h"
#include "tensor/TensorUtils.h"

#include <cmath>
#include <cstdio>

using namespace dnnfusion;
using namespace dnnfusion::perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const std::string &Model, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "FAIL %s: %s\n", Model.c_str(), What);
    ++Failures;
  }
}

bool nearlyEqual(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * std::max(1.0, std::fabs(B));
}

} // namespace

int main() {
  for (const ModelZooEntry &E : modelZoo()) {
    const std::string &Name = E.Info.Name;
    Expected<CompiledModel> M = compileModel(E.Build());
    if (!M.ok()) {
      check(false, Name, "compile failed");
      continue;
    }
    const CompiledModel &CM = M.value();

    std::array<int, NumBlockClasses> Counts{};
    for (const CompiledBlock &B : CM.Blocks) {
      int C = static_cast<int>(classifyBlock(B));
      check(C >= 0 && C < NumBlockClasses, Name, "class out of range");
      ++Counts[static_cast<size_t>(C)];
      for (const CompiledStep &S : B.Steps)
        check(classifyStep(S) <= classifyBlock(B), Name,
              "a step outranks its block's class");
    }
    int Classified = 0;
    for (int N : Counts)
      Classified += N;
    check(Classified == static_cast<int>(CM.Blocks.size()), Name,
          "some block is not classified exactly once");

    std::vector<Tensor> Inputs;
    Rng R(7);
    for (const TensorSpec &Spec : CM.Signature.Inputs) {
      Tensor T(Spec.Sh, Spec.Ty);
      fillRandom(T, R, 0.2f, 1.0f);
      Inputs.push_back(std::move(T));
    }
    ExecutionContext Ctx(CM);
    ExecutionStats Stats;
    Expected<std::vector<Tensor>> Out = Ctx.tryRun(Inputs, &Stats, true);
    check(Out.ok(), Name, "traced run failed");
    check(Stats.PerBlockMs.size() == CM.Blocks.size(), Name,
          "PerBlockMs has one entry per block");

    double BlockSum = 0;
    for (double Ms : Stats.PerBlockMs)
      BlockSum += Ms;
    double ClassSum = 0;
    for (double Ms : sumByClass(CM.Blocks, Stats.PerBlockMs))
      ClassSum += Ms;
    check(nearlyEqual(ClassSum, BlockSum), Name,
          "class times do not sum to block_sum_ms");

    std::vector<double> Flops(CM.BlockFlops.begin(), CM.BlockFlops.end());
    double FlopSum = 0;
    for (double F : sumByClass(CM.Blocks, Flops))
      FlopSum += F;
    check(nearlyEqual(FlopSum, static_cast<double>(CM.totalFlops())), Name,
          "class FLOPs do not sum to the model total");

    std::printf("%-16s %4zu blocks:", Name.c_str(), CM.Blocks.size());
    for (int C = 0; C < NumBlockClasses; ++C)
      std::printf(" %s=%d", blockClassName(static_cast<BlockClass>(C)),
                  Counts[static_cast<size_t>(C)]);
    std::printf("\n");
  }
  std::printf("%s (%d failure%s)\n", Failures ? "FAILED" : "PASSED", Failures,
              Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}
