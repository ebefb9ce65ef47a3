// Figure 7: heatmaps of the pairwise query-similarity matrices. Rendered as
// ASCII shade grids (space < . < : < + < * < #), one per metric per DB,
// demonstrating that the three metrics activate different regions.
#include <cmath>
#include <cstdio>

#include "bench_common.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

char Shade(double v) {
  if (v < 0.05) return ' ';
  if (v < 0.20) return '.';
  if (v < 0.40) return ':';
  if (v < 0.60) return '+';
  if (v < 0.80) return '*';
  return '#';
}

void PrintMatrix(const char* name,
                 const std::vector<std::vector<double>>& m) {
  std::printf("\n%s (%zux%zu, rows/cols = queries in corpus order)\n", name,
              m.size(), m.size());
  for (const auto& row : m) {
    std::fputs("  |", stdout);
    for (double v : row) std::fputc(Shade(v), stdout);
    std::fputs("|\n", stdout);
  }
}

void PrintDb(const Workbench& wb) {
  std::printf("\n[%s]  legend: ' '<0.05 '.'<0.2 ':'<0.4 '+'<0.6 '*'<0.8 "
              "'#'>=0.8\n",
              wb.label.c_str());
  PrintMatrix("syntax-based", wb.sims.syntax);
  PrintMatrix("witness-based", wb.sims.witness);
  PrintMatrix("rank-based", wb.sims.rank);

  // Orthogonality summary: correlation between the metric matrices.
  auto flatten = [](const std::vector<std::vector<double>>& m) {
    std::vector<double> out;
    for (size_t i = 0; i < m.size(); ++i) {
      for (size_t j = i + 1; j < m.size(); ++j) out.push_back(m[i][j]);
    }
    return out;
  };
  auto pearson = [](const std::vector<double>& a,
                    const std::vector<double>& b) {
    double ma = 0.0, mb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      ma += a[i];
      mb += b[i];
    }
    ma /= static_cast<double>(a.size());
    mb /= static_cast<double>(a.size());
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      cov += (a[i] - ma) * (b[i] - mb);
      va += (a[i] - ma) * (a[i] - ma);
      vb += (b[i] - mb) * (b[i] - mb);
    }
    return va > 0 && vb > 0 ? cov / std::sqrt(va * vb) : 0.0;
  };
  const auto s = flatten(wb.sims.syntax);
  const auto w = flatten(wb.sims.witness);
  const auto r = flatten(wb.sims.rank);
  std::printf("\npairwise Pearson correlations: syntax~witness %.3f | "
              "syntax~rank %.3f | witness~rank %.3f\n",
              pearson(s, w), pearson(s, r), pearson(w, r));
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchArgs(argc, argv);
  ThreadPool pool;
  PrintHeader("Figure 7: query-similarity heatmaps (ASCII rendering)");
  const Workbench imdb = MakeImdbWorkbench(pool);
  PrintDb(imdb);
  const Workbench academic = MakeAcademicWorkbench(pool);
  PrintDb(academic);
  return 0;
}
