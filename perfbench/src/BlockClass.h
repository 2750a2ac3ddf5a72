//===- perfbench/src/BlockClass.h - Fusion-block classes ----------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sorts every fusion block of a compiled model into one of six classes, so
/// per-block wall times can be reported per class (GEMM, attention, norm,
/// conv, pool, elementwise/movement). The class comes from the block's
/// compiled steps only — CompiledStep::Kind, and the OpKind of RefKernel
/// steps — so it is fixed at compile time and never depends on timing.
///
/// Each step maps to one class; a block takes the highest-ranked class of
/// its steps, in the order attention > conv > gemm > norm > pool > eltwise
/// (a conv block with a fused pooling tail is a conv block).
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_PERFBENCH_BLOCKCLASS_H
#define DNNFUSION_PERFBENCH_BLOCKCLASS_H

#include "core/BlockCompiler.h"

#include <array>

namespace dnnfusion {
namespace perfbench {

/// Block classes, lowest rank first.
enum class BlockClass {
  /// Expression-only blocks: elementwise chains, data movement, and
  /// RefKernel operators with no class of their own (Resize, CumSum, ...).
  Eltwise,
  /// MaxPool / AveragePool / GlobalAveragePool.
  Pool,
  /// Fused LayerNorm, Softmax, Reduce*, InstanceNormalization.
  Norm,
  /// MatMul / Gemm.
  Gemm,
  /// Conv / ConvTranspose.
  Conv,
  /// Fused single-pass attention.
  Attention,
};

inline constexpr int NumBlockClasses = 6;

/// Lower-case class name as used in metric names ("gemm", "conv", ...).
const char *blockClassName(BlockClass C);

/// The class of one compiled step.
BlockClass classifyStep(const CompiledStep &S);

/// The class of \p Block: the highest-ranked class over its steps
/// (Eltwise for a block without steps).
BlockClass classifyBlock(const CompiledBlock &Block);

/// Per-class sums of \p PerBlock (one value per block of \p Blocks),
/// indexed by static_cast<int>(BlockClass).
std::array<double, NumBlockClasses>
sumByClass(const std::vector<CompiledBlock> &Blocks,
           const std::vector<double> &PerBlock);

} // namespace perfbench
} // namespace dnnfusion

#endif // DNNFUSION_PERFBENCH_BLOCKCLASS_H
