#ifndef LSHAP_PROVENANCE_COMPILER_H_
#define LSHAP_PROVENANCE_COMPILER_H_

#include <memory>

#include "common/budget.h"
#include "common/status.h"
#include "provenance/bool_expr.h"
#include "provenance/circuit.h"

namespace lshap {

// Compiles a monotone DNF into a decision-DNNF circuit by Shannon expansion
// with formula caching and connected-component decomposition. This mirrors
// the knowledge-compilation step of the exact Shapley algorithm in Deutch et
// al. (SIGMOD 2022): once in this form, model counting by size — and hence
// Shapley values — is polynomial in the circuit size.
struct CompilerOptions {
  // Combine variable-disjoint clause components with a disjoint-OR node
  // instead of Shannon-expanding across them. Disabling this reproduces the
  // naive compiler (exponential on hub-structured SPJU provenance); it
  // exists for the ablation benchmark.
  bool component_decomposition = true;
};

// Budget check-site names exposed for fault-injection tests.
inline constexpr char kSiteCompilerExpand[] = "compiler.expand";

class DnfCompiler {
 public:
  DnfCompiler() = default;
  explicit DnfCompiler(const CompilerOptions& options) : options_(options) {}

  // Compiles `dnf` (absorption is applied internally) and returns the
  // circuit with its root set. The circuit is owned by the caller. A budget
  // is polled at every Shannon-expansion step and charged one work unit per
  // circuit node created, so a node budget bounds peak memory and a
  // deadline bounds wall time. On a trip the partial circuit is discarded
  // and kResourceExhausted / kCancelled is returned. With no budget the
  // call cannot fail, but compilation is exponential in the worst case
  // (PP-hard in general) and can run away on dense multi-hub provenance,
  // so budget untrusted input (DESIGN.md §9.4).
  Result<std::unique_ptr<Circuit>> Compile(const Dnf& dnf,
                                           ExecutionBudget* budget = nullptr);
  // Compile(dnf).value(), under the name the benchmark harness calls.
  std::unique_ptr<Circuit> CompileUnlimited(const Dnf& dnf) {
    return Compile(dnf).value();
  }

  // Statistics of the last compilation (also populated for a failed
  // budgeted compile, describing the partial circuit at the trip point).
  size_t last_num_nodes() const { return last_num_nodes_; }
  size_t last_cache_hits() const { return last_cache_hits_; }

 private:
  struct Ctx;
  NodeId CompileRec(const Dnf& dnf, Circuit& circuit, Ctx& ctx);

  CompilerOptions options_;
  size_t last_num_nodes_ = 0;
  size_t last_cache_hits_ = 0;
};

}  // namespace lshap

#endif  // LSHAP_PROVENANCE_COMPILER_H_
