// Table 1: average overhead of the SVM system, Strong Memory Model vs.
// Lazy Release Consistency, measured with the synthetic benchmark of
// Section 7.2.1 on cores 0 and 30 with a 4 MiB region.
//
// Paper values (for shape comparison; absolute numbers depend on the
// authors' 2012 testbed):
//   allocation of 4 MByte            741.0 us      741.0 us
//   physical allocation of a frame   112.301 us    112.296 us
//   mapping of a page frame          10.198 us     2.418 us
//   retrieve the access permission   8.990 us      (n/a)
#include <cstdio>
#include <tuple>

#include "bench/bench_common.hpp"
#include "workloads/svm_overhead.hpp"

using namespace msvm;

int main(int argc, char** argv) {
  const u64 mbytes = bench::arg_u64(argc, argv, "mbytes", 4);

  bench::print_header("Table 1 — SVM per-page overheads",
                      "Lankes et al., PMAM'12, Section 7.2.1, Table 1");

  // Before the runs: the constructor applies --trace and --heatmap, and
  // a chip built earlier would publish to no sink.
  bench::JsonReport json("table1", argc, argv);
  json.config("mbytes", mbytes);

  workloads::SvmOverheadParams p;
  p.bytes = mbytes << 20;

  p.model = svm::Model::kStrong;
  const auto strong = run_svm_overhead(p);
  p.model = svm::Model::kLazyRelease;
  const auto lazy = run_svm_overhead(p);

  // The paper's values; lazy retrieval has none.
  const struct {
    const char* label;
    TimePs strong;
    TimePs lazy;
    double paper_strong;
    double paper_lazy;  // 0: none
    int decimals;
  } rows[] = {
      {"allocation of 4 MByte (total)", strong.alloc_total, lazy.alloc_total,
       741.0, 741.0, 1},
      {"physical allocation of a page frame", strong.phys_alloc_per_page,
       lazy.phys_alloc_per_page, 112.301, 112.296, 3},
      {"mapping of a page frame", strong.map_per_page, lazy.map_per_page,
       10.198, 2.418, 3},
      {"retrieve the access permission", strong.retrieve_per_page,
       lazy.retrieve_per_page, 8.990, 0.0, 3},
  };

  std::printf("%-36s | %12s | %12s | %12s | %12s\n", "", "Strong [us]",
              "Lazy [us]", "paper Strong", "paper Lazy");
  bench::print_row_sep();
  for (const auto& row : rows) {
    const int d = row.decimals;
    std::printf("%-36s | %12.*f | %12.*f | %12.*f | ", row.label, d,
                ps_to_us(row.strong), d, ps_to_us(row.lazy), d,
                row.paper_strong);
    if (row.paper_lazy > 0) {
      std::printf("%12.*f\n", d, row.paper_lazy);
    } else {
      std::printf("%12s\n", "-");
    }
  }
  bench::print_row_sep();

  bench::Claim claim(
      "rows 1-2 equal across models to within 0.1%; every value within "
      "15% of the paper's; strong retrieval within 2%; lazy retrieval < 5% "
      "of strong's");
  // Rows 1-2 do not depend on the model. The paper's differ by 0.004%,
  // ours by the 15 ns CL1INVMB that ends a lazy barrier.
  for (const auto& row : {rows[0], rows[1]}) {
    claim.require(row.strong * 1000 <= row.lazy * 1001 &&
                      row.lazy * 1000 <= row.strong * 1001,
                  "%s equal across models to within 0.1%%: %.3f vs %.3f us",
                  row.label, ps_to_us(row.strong), ps_to_us(row.lazy));
  }
  for (const auto& row : rows) {
    for (const auto& [model, sim, paper] :
         {std::tuple{"strong", row.strong, row.paper_strong},
          std::tuple{"lazy", row.lazy, row.paper_lazy}}) {
      if (paper == 0) continue;
      const double us = ps_to_us(sim);
      claim.require(us >= 0.85 * paper && us <= 1.15 * paper,
                    "%s, %s: %.3f us within 15%% of the paper's %.3f us",
                    row.label, model, us, paper);
    }
  }
  // Retrieval is a remap plus an ownership round trip; the tighter bound
  // catches a remap that skips its software cost (-12% without it).
  const double retrieve_us = ps_to_us(strong.retrieve_per_page);
  claim.require(retrieve_us >= 0.98 * rows[3].paper_strong &&
                    retrieve_us <= 1.02 * rows[3].paper_strong,
                "%s, strong: %.3f us within 2%% of the paper's %.3f us",
                rows[3].label, retrieve_us, rows[3].paper_strong);
  claim.require(lazy.retrieve_per_page * 20 < strong.retrieve_per_page,
                "lazy retrieval %.3f us < 5%% of strong's %.3f us",
                ps_to_us(lazy.retrieve_per_page),
                ps_to_us(strong.retrieve_per_page));

  json.sample("strong_alloc_total_us", ps_to_us(strong.alloc_total));
  json.sample("lazy_alloc_total_us", ps_to_us(lazy.alloc_total));
  json.sample("strong_phys_alloc_us", ps_to_us(strong.phys_alloc_per_page));
  json.sample("lazy_phys_alloc_us", ps_to_us(lazy.phys_alloc_per_page));
  json.sample("strong_map_us", ps_to_us(strong.map_per_page));
  json.sample("lazy_map_us", ps_to_us(lazy.map_per_page));
  json.sample("strong_retrieve_us", ps_to_us(strong.retrieve_per_page));
  return claim.verdict();
}
