//===- perfbench/src/BlockClass.cpp - Fusion-block classes ----------------===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "BlockClass.h"

#include <algorithm>

namespace dnnfusion {
namespace perfbench {

const char *blockClassName(BlockClass C) {
  switch (C) {
  case BlockClass::Eltwise:
    return "eltwise";
  case BlockClass::Pool:
    return "pool";
  case BlockClass::Norm:
    return "norm";
  case BlockClass::Gemm:
    return "gemm";
  case BlockClass::Conv:
    return "conv";
  case BlockClass::Attention:
    return "attention";
  }
  return "eltwise";
}

BlockClass classifyStep(const CompiledStep &S) {
  switch (S.K) {
  case CompiledStep::Kind::Expression:
    return BlockClass::Eltwise;
  case CompiledStep::Kind::FusedAttention:
    return BlockClass::Attention;
  case CompiledStep::Kind::FusedLayerNorm:
    return BlockClass::Norm;
  case CompiledStep::Kind::RefKernel:
    break;
  }
  switch (S.Op) {
  case OpKind::Conv:
  case OpKind::ConvTranspose:
    return BlockClass::Conv;
  case OpKind::MatMul:
  case OpKind::Gemm:
    return BlockClass::Gemm;
  case OpKind::MaxPool:
  case OpKind::AveragePool:
  case OpKind::GlobalAveragePool:
    return BlockClass::Pool;
  case OpKind::Softmax:
  case OpKind::ReduceSum:
  case OpKind::ReduceMean:
  case OpKind::ReduceMax:
  case OpKind::ReduceMin:
  case OpKind::ReduceProd:
  case OpKind::InstanceNormalization:
    return BlockClass::Norm;
  default:
    return BlockClass::Eltwise;
  }
}

BlockClass classifyBlock(const CompiledBlock &Block) {
  BlockClass C = BlockClass::Eltwise;
  for (const CompiledStep &S : Block.Steps)
    C = std::max(C, classifyStep(S));
  return C;
}

std::array<double, NumBlockClasses>
sumByClass(const std::vector<CompiledBlock> &Blocks,
           const std::vector<double> &PerBlock) {
  std::array<double, NumBlockClasses> Sums{};
  for (size_t BI = 0; BI < Blocks.size() && BI < PerBlock.size(); ++BI)
    Sums[static_cast<size_t>(classifyBlock(Blocks[BI]))] += PerBlock[BI];
  return Sums;
}

} // namespace perfbench
} // namespace dnnfusion
