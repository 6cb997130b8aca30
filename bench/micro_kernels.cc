// google-benchmark microbenchmarks for the hot kernels underneath
// DisMASTD: sparse MTTKRP (the bottleneck operator, §IV-B1), Khatri-Rao and
// Gram products, the R x R Cholesky normal-equation solve, the row-batched
// update kernels next to the per-row calls they replace (ns_per_row at
// R = 10), the ANN shortlist and LSH encode (ns_per_row), the GTP/MTP
// partitioners, and a whole simulated distributed step.
//
// Run with --threads N to set the execution engine's thread count for
// BM_DisMastdStep (0 = all cores); compare --threads 1 vs --threads 8 to
// measure the shared-memory speedup of the cluster simulation.
//
// Kernel flags:
//   --kernel scalar|avx2|avx512   force the dispatched backend for the
//                                 google-benchmark suite
//   --kernel-sweep=FILE           run the backend x precision sweep
//                                 (MTTKRP fp64, top-K fp64/bf16/int8 on
//                                 every supported backend) and append CSV
//                                 rows op,backend,precision,rank,items,
//                                 seconds,rows_per_s,gb_per_s to FILE
//   --sweep-only                  skip the google-benchmark suite
//   --bench-out=FILE              write the sweep as a BenchReport JSON
//                                 (schema dismastd-bench-v1; implies the
//                                 sweep runs, with the CSV defaulting to
//                                 micro_kernels_sweep.csv)

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/dismastd.h"
#include "kernels/kernels.h"
#include "kernels/quantized.h"
#include "la/ops.h"
#include "la/solve.h"
#include "partition/factor_assign.h"
#include "partition/gtp.h"
#include "partition/mtp.h"
#include "ann/lsh_index.h"
#include "serve/servable_model.h"
#include "stream/generator.h"
#include "tensor/mttkrp.h"

namespace dismastd {
namespace {

// Set by main() from --threads before benchmarks run.
size_t g_engine_threads = 0;

SparseTensor MakeTensor(uint64_t nnz) {
  GeneratorOptions options;
  options.dims = {20000, 5000, 500};
  options.nnz = nnz;
  options.zipf_exponents = {1.0, 1.0, 0.5};
  options.seed = 42;
  return GenerateSparseTensor(options).tensor;
}

void BM_Mttkrp(benchmark::State& state) {
  const uint64_t nnz = static_cast<uint64_t>(state.range(0));
  const size_t rank = static_cast<size_t>(state.range(1));
  const SparseTensor tensor = MakeTensor(nnz);
  Rng rng(7);
  std::vector<Matrix> factors;
  for (uint64_t d : tensor.dims()) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  std::vector<const Matrix*> ptrs;
  for (const Matrix& f : factors) ptrs.push_back(&f);
  Matrix out(static_cast<size_t>(tensor.dim(0)), rank);
  for (auto _ : state) {
    out.Fill(0.0);
    MttkrpAccumulate(tensor, ptrs, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(tensor.nnz()) *
                          state.iterations());
}
BENCHMARK(BM_Mttkrp)
    ->Args({10000, 10})
    ->Args({100000, 10})
    ->Args({400000, 10})
    ->Args({100000, 5})
    ->Args({100000, 20});

void BM_KhatriRao(benchmark::State& state) {
  Rng rng(1);
  const Matrix a = Matrix::Random(static_cast<size_t>(state.range(0)), 10, rng);
  const Matrix b = Matrix::Random(64, 10, rng);
  for (auto _ : state) {
    Matrix kr = KhatriRao(a, b);
    benchmark::DoNotOptimize(kr.data());
  }
}
BENCHMARK(BM_KhatriRao)->Arg(64)->Arg(256)->Arg(1024);

void BM_Gram(benchmark::State& state) {
  Rng rng(2);
  const Matrix a = Matrix::Random(static_cast<size_t>(state.range(0)), 10, rng);
  for (auto _ : state) {
    Matrix g = TransposeTimes(a, a);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_Gram)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NormalEquationSolve(benchmark::State& state) {
  Rng rng(3);
  const size_t rank = 10;
  const size_t rows = static_cast<size_t>(state.range(0));
  const Matrix basis = Matrix::Random(rows + rank, rank, rng);
  const Matrix gram = TransposeTimes(basis, basis);
  const Matrix rhs = Matrix::Random(rows, rank, rng);
  for (auto _ : state) {
    Matrix x = SolveNormalEquationsRows(gram, rhs);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_NormalEquationSolve)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Row-batched update kernels next to the calls they replace, at the paper's
// R = 10 over a 6400-row partition (the size of one Netflix-mimic mode-0
// part at 15 workers; BM_RowUpdate runs all 15). Each reports ns_per_row.
// Arg 0 runs the per-row (or composed) form, arg 1 the batched (or fused)
// kernel; both produce the same bits.

constexpr size_t kRowBenchRank = 10;
constexpr size_t kRowBenchRows = 6400;

void SetNsPerRow(benchmark::State& state, size_t rows) {
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(rows) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}

void BM_RowUpdate(benchmark::State& state) {
  // The Eq. 5 row update of one mode with its Gram partials: 96,000 old
  // rows scattered over 15 parts, as MTP leaves the Netflix mimic's mode 0.
  // Arg 0 runs the composed sequence: per part, the numerator rows (the
  // blocked-8 dots through topk_score_block over had_hᵀ, bit-identical to
  // the per-column dot_strided), mul/add, one cholesky_solve_rows call and
  // a scatter into the factor; then, after every part, gram_update_rows
  // over each part's rows for the Gram and the cross-Gram, prefetching 8
  // rows ahead in the gathers and the scatter. Arg 1 runs one update_rows
  // call per part. Both produce the same bits.
  const kernels::KernelTable& kern = kernels::Get();
  const bool fused = state.range(0) != 0;
  const size_t rank = kRowBenchRank;
  constexpr size_t kRows = 96000;
  constexpr size_t kParts = 15;
  Rng rng(21);
  const Matrix prev = Matrix::Random(kRows, rank, rng);
  const Matrix mttkrp = Matrix::Random(kRows, rank, rng);
  const Matrix had_h = Matrix::Random(rank, rank, rng);
  Matrix had_h_t(rank, rank);
  for (size_t i = 0; i < rank; ++i) {
    for (size_t c = 0; c < rank; ++c) had_h_t(c, i) = had_h(i, c);
  }
  const Matrix basis = Matrix::Random(rank + 8, rank, rng);
  Matrix lower;
  DISMASTD_CHECK_OK(CholeskyFactor(TransposeTimes(basis, basis), &lower));
  std::vector<std::vector<uint64_t>> parts(kParts);
  for (uint64_t r = 0; r < kRows; ++r) {
    parts[rng.NextBounded(kParts)].push_back(r);
  }
  const double mu = 0.5;
  constexpr size_t kAhead = 8;
  const auto prefetch_row = [](const Matrix& m, uint64_t r) {
    __builtin_prefetch(m.RowPtr(r));
    __builtin_prefetch(m.RowPtr(r) + m.cols() - 1);
  };
  Matrix factor(kRows, rank);
  Matrix g(rank, rank), h(rank, rank);
  for (auto _ : state) {
    g.Fill(0.0);
    h.Fill(0.0);
    for (const std::vector<uint64_t>& rows : parts) {
      if (fused) {
        kern.update_rows(rows.data(), rows.size(), rank, prev.data(),
                         had_h.data(), mu, mttkrp.data(), lower.data(),
                         factor.data(), g.data(), h.data());
        continue;
      }
      Matrix numerator(rows.size(), rank);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i + kAhead < rows.size()) {
          prefetch_row(prev, rows[i + kAhead]);
          prefetch_row(mttkrp, rows[i + kAhead]);
        }
        double* out = numerator.RowPtr(i);
        kern.topk_score_block(had_h_t.data(), rank, rank,
                              prev.RowPtr(rows[i]), out);
        const double* m = mttkrp.RowPtr(rows[i]);
        for (size_t c = 0; c < rank; ++c) out[c] = mu * out[c] + m[c];
      }
      kern.cholesky_solve_rows(lower.data(), rank, numerator.data(),
                               rows.size(), numerator.data());
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i + kAhead < rows.size()) prefetch_row(factor, rows[i + kAhead]);
        std::copy(numerator.RowPtr(i), numerator.RowPtr(i) + rank,
                  factor.RowPtr(rows[i]));
      }
    }
    if (!fused) {
      for (const std::vector<uint64_t>& rows : parts) {
        kern.gram_update_rows(factor.data(), factor.data(), rows.data(),
                              rows.size(), rank, g.data());
        kern.gram_update_rows(prev.data(), factor.data(), rows.data(),
                              rows.size(), rank, h.data());
      }
    }
    benchmark::DoNotOptimize(factor.data());
    benchmark::DoNotOptimize(g.data());
    benchmark::DoNotOptimize(h.data());
  }
  SetNsPerRow(state, kRows);
}
BENCHMARK(BM_RowUpdate)->Arg(0)->Arg(1);

void BM_RowSolve(benchmark::State& state) {
  // Forward/back substitution against a shared Cholesky factor: one
  // cholesky_solve_rows call per row vs one call for the whole partition.
  const kernels::KernelTable& kern = kernels::Get();
  const bool batched = state.range(0) != 0;
  const size_t rank = kRowBenchRank;
  Rng rng(22);
  const Matrix basis = Matrix::Random(rank + 8, rank, rng);
  Matrix lower;
  DISMASTD_CHECK_OK(CholeskyFactor(TransposeTimes(basis, basis), &lower));
  const Matrix rhs = Matrix::Random(kRowBenchRows, rank, rng);
  Matrix out(kRowBenchRows, rank);
  for (auto _ : state) {
    if (batched) {
      kern.cholesky_solve_rows(lower.data(), rank, rhs.data(), kRowBenchRows,
                               out.data());
    } else {
      for (size_t r = 0; r < kRowBenchRows; ++r) {
        kern.cholesky_solve_rows(lower.data(), rank, rhs.RowPtr(r), 1,
                                 out.RowPtr(r));
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  SetNsPerRow(state, kRowBenchRows);
}
BENCHMARK(BM_RowSolve)->Arg(0)->Arg(1);

void BM_RowGram(benchmark::State& state) {
  // Gram + cross-Gram partials: two one-row gram_update_rows calls per row
  // vs two calls for the whole partition.
  const kernels::KernelTable& kern = kernels::Get();
  const bool batched = state.range(0) != 0;
  const size_t rank = kRowBenchRank;
  Rng rng(23);
  const Matrix a = Matrix::Random(kRowBenchRows, rank, rng);
  const Matrix p = Matrix::Random(kRowBenchRows, rank, rng);
  std::vector<uint64_t> rows(kRowBenchRows);
  for (size_t r = 0; r < kRowBenchRows; ++r) rows[r] = r;
  Matrix g(rank, rank), h(rank, rank);
  for (auto _ : state) {
    if (batched) {
      kern.gram_update_rows(a.data(), a.data(), rows.data(), rows.size(),
                            rank, g.data());
      kern.gram_update_rows(p.data(), a.data(), rows.data(), rows.size(),
                            rank, h.data());
    } else {
      for (const uint64_t& r : rows) {
        kern.gram_update_rows(a.data(), a.data(), &r, 1, rank, g.data());
        kern.gram_update_rows(p.data(), a.data(), &r, 1, rank, h.data());
      }
    }
    benchmark::DoNotOptimize(g.data());
    benchmark::DoNotOptimize(h.data());
  }
  SetNsPerRow(state, kRowBenchRows);
}
BENCHMARK(BM_RowGram)->Arg(0)->Arg(1);

void BM_RowGroupedMttkrp(benchmark::State& state) {
  // Row-grouped MTTKRP (entries sorted by output row, Zipf row sizes). The
  // first arg picks the call: 0 one single-entry mttkrp_coo call per
  // non-zero, 1 one mttkrp_coo call over the grouped COO, 2 one
  // mttkrp_rows call over the same entries as one part's row runs (the
  // step's partition data). The second arg is the rank: 8 and 16 are whole
  // 8-column blocks, 10 and 17 leave a 2- and a 1-column tail.
  // ns_per_row here is per non-zero.
  const kernels::KernelTable& kern = kernels::Get();
  const int64_t variant = state.range(0);
  const size_t rank = static_cast<size_t>(state.range(1));
  SparseTensor tensor = MakeTensor(100000);
  tensor.SortLexicographic();
  const ModePartitionData runs = BuildModePartitionData(
      tensor, PartitionTensor(PartitionerKind::kGreedy, tensor, 1), 0,
      tensor.SliceNnzCounts(0), 1);
  Rng rng(24);
  std::vector<Matrix> factors;
  std::vector<const double*> data;
  for (uint64_t d : tensor.dims()) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  for (const Matrix& f : factors) data.push_back(f.data());
  Matrix out(static_cast<size_t>(tensor.dim(0)), rank);
  const size_t nnz = tensor.nnz();
  for (auto _ : state) {
    if (variant == 2) {
      kern.mttkrp_rows(runs.run_rows.data(), runs.run_begin.data(),
                       runs.run_rows.size(), runs.indices.data(),
                       runs.values.data(), 3, 0, data.data(), rank,
                       out.data());
    } else if (variant == 1) {
      kern.mttkrp_coo(tensor.IndexTuple(0), tensor.ValuePtr(0), nnz, 3, 0,
                      data.data(), rank, out.data());
    } else {
      for (size_t e = 0; e < nnz; ++e) {
        kern.mttkrp_coo(tensor.IndexTuple(e), tensor.ValuePtr(e), 1, 3, 0,
                        data.data(), rank, out.data());
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  SetNsPerRow(state, nnz);
}
BENCHMARK(BM_RowGroupedMttkrp)->ArgsProduct({{0, 1, 2}, {8, 10, 16, 17}});

void BM_Partitioner(benchmark::State& state) {
  const size_t slices = static_cast<size_t>(state.range(0));
  const bool use_mtp = state.range(1) != 0;
  Rng rng(4);
  ZipfSampler sampler(slices, 1.1);
  std::vector<uint64_t> hist(slices, 0);
  for (size_t draw = 0; draw < slices * 20; ++draw) {
    ++hist[sampler.Sample(rng)];
  }
  for (auto _ : state) {
    ModePartition p = use_mtp ? MaxMinPartitionMode(hist, 15)
                              : GreedyPartitionMode(hist, 15);
    benchmark::DoNotOptimize(p.part_nnz.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(slices) * state.iterations());
  state.SetLabel(use_mtp ? "MTP" : "GTP");
}
BENCHMARK(BM_Partitioner)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

KruskalTensor MakeModel(const std::vector<uint64_t>& dims, size_t rank) {
  Rng rng(11);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

void BM_KruskalValueAt(benchmark::State& state) {
  // The serving point-prediction kernel: Σ_f Π_n A_n[i_n, f]. Sweep R.
  const size_t rank = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> dims = {20000, 5000, 500};
  const KruskalTensor model = MakeModel(dims, rank);
  Rng rng(12);
  constexpr size_t kNumIndices = 1024;
  std::vector<std::array<uint64_t, 3>> indices(kNumIndices);
  for (auto& index : indices) {
    for (size_t n = 0; n < dims.size(); ++n) {
      index[n] = rng.NextBounded(dims[n]);
    }
  }
  size_t cursor = 0;
  for (auto _ : state) {
    const double value = model.ValueAt(indices[cursor].data());
    benchmark::DoNotOptimize(value);
    cursor = (cursor + 1) % kNumIndices;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KruskalValueAt)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_TopKScore(benchmark::State& state) {
  // The serving recommendation kernel: one R-vector x factor-matrix
  // product over all J candidates plus a partial sort of the best K.
  // Sweep R and K; J is fixed at the product-mode size.
  const size_t rank = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const std::vector<uint64_t> dims = {20000, 50000, 500};
  const auto model =
      serve::ServableModel::Build(MakeModel(dims, rank), 1, 0);
  Rng rng(13);
  constexpr size_t kNumAnchors = 256;
  std::vector<std::vector<uint64_t>> anchors(kNumAnchors);
  for (auto& anchor : anchors) {
    anchor = {rng.NextBounded(dims[0]), 0, rng.NextBounded(dims[2])};
  }
  size_t cursor = 0;
  for (auto _ : state) {
    const auto top = model->TopK(/*target_mode=*/1, anchors[cursor], k);
    benchmark::DoNotOptimize(top.data());
    cursor = (cursor + 1) % kNumAnchors;
  }
  // Candidates scored per second is the serving-relevant rate.
  state.SetItemsProcessed(static_cast<int64_t>(dims[1]) *
                          state.iterations());
}
BENCHMARK(BM_TopKScore)
    ->Args({5, 10})
    ->Args({10, 10})
    ->Args({20, 10})
    ->Args({10, 1})
    ->Args({10, 100})
    ->Args({10, 1000});

// ---------------------------------------------------------------------------
// The ANN plane at the perfbench serve_topk shape: J = 300k candidate rows
// of R = 10, shortlists of 1000 rows. Both report ns_per_row.

constexpr size_t kAnnBenchRows = 300000;

void BM_HammingShortlist(benchmark::State& state) {
  // One AnnIndex::Shortlist call: query encode, the fused Hamming scan +
  // histogram over J codes, and the block-skipping select. Arg = code
  // words per row (1 -> 64-bit, 4 -> 256-bit codes).
  const size_t words = static_cast<size_t>(state.range(0));
  Rng rng(31);
  std::vector<Matrix> factors;
  factors.push_back(Matrix::RandomGaussian(kAnnBenchRows, kRowBenchRank, rng));
  factors.push_back(Matrix::RandomGaussian(8, kRowBenchRank, rng));
  ann::LshOptions options;
  options.bits = 64 * words;
  const auto index = ann::AnnIndex::Build(KruskalTensor(std::move(factors)),
                                          options, nullptr, nullptr);
  constexpr size_t kNumQueries = 64;
  std::vector<std::vector<double>> queries(kNumQueries);
  for (auto& q : queries) {
    q.resize(kRowBenchRank);
    for (double& w : q) w = rng.NextDouble(-1.0, 1.0);
  }
  size_t cursor = 0;
  for (auto _ : state) {
    const std::vector<uint32_t> shortlist =
        index->Shortlist(0, queries[cursor].data(), 1000);
    benchmark::DoNotOptimize(shortlist.data());
    cursor = (cursor + 1) % kNumQueries;
  }
  SetNsPerRow(state, kAnnBenchRows);
}
BENCHMARK(BM_HammingShortlist)->Arg(1)->Arg(4);

void BM_LshEncodeRows(benchmark::State& state) {
  // Sign-encoding augmented rows (R + 1 = 11 doubles) against `bits`
  // hyperplanes: arg 1 = 0 makes one one-row call per row (the query
  // path), 1 one batched call over all rows (the index build path).
  const size_t bits = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  const ann::LshHyperplanes planes(bits, kRowBenchRank, ann::LshOptions{}.seed);
  Rng rng(32);
  const Matrix aug =
      Matrix::RandomGaussian(kRowBenchRows, kRowBenchRank + 1, rng);
  std::vector<uint64_t> codes(kRowBenchRows * planes.words());
  for (auto _ : state) {
    if (batched) {
      planes.Encode(aug.data(), kRowBenchRows, codes.data());
    } else {
      for (size_t r = 0; r < kRowBenchRows; ++r) {
        planes.Encode(aug.RowPtr(r), 1, codes.data() + r * planes.words());
      }
    }
    benchmark::DoNotOptimize(codes.data());
    benchmark::ClobberMemory();
  }
  SetNsPerRow(state, kRowBenchRows);
}
BENCHMARK(BM_LshEncodeRows)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_DisMastdStep(benchmark::State& state) {
  // One full simulated distributed decomposition step (partitioning plus
  // ALS sweeps) on an 8-worker cluster — the unit the execution engine
  // parallelizes. The real work per benchmark iteration is the per-worker
  // MTTKRP/update/reduce compute, so wall time here scales with --threads.
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  GeneratorOptions g;
  g.dims = {300, 200, 100};
  g.nnz = 60000;
  g.seed = 42;
  const SparseTensor snapshot = GenerateSparseTensor(g).tensor;

  DistributedOptions options;
  options.als.rank = 10;
  options.als.max_iterations = 2;
  options.num_workers = workers;
  options.partitioner = PartitionerKind::kMaxMin;
  options.execution.num_threads = g_engine_threads;

  const std::vector<uint64_t> old_dims(snapshot.order(), 0);
  const KruskalTensor no_prev;
  for (auto _ : state) {
    DistributedResult result =
        DisMastdDecompose(snapshot, old_dims, no_prev, options);
    benchmark::DoNotOptimize(result.metrics.total_flops);
  }
  state.SetItemsProcessed(static_cast<int64_t>(snapshot.nnz()) *
                          state.iterations());
  state.SetLabel("threads=" + std::to_string(g_engine_threads));
}
BENCHMARK(BM_DisMastdStep)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Backend x precision sweep (--kernel-sweep=FILE)
//
// Times the kernel-table entry points directly — no engine or partial-sort
// overhead — on every backend this host supports, and appends CSV rows
//   op,backend,precision,rank,items,seconds,rows_per_s,gb_per_s
// to FILE. "mttkrp" rows cover fp64 (the decomposition path is fp64-only by
// the determinism contract); "topk" rows cover fp64, bf16 and int8 candidate
// scans. CI greps this CSV to assert the vectorized backends actually ran.

template <typename Fn>
double TimeSeconds(size_t reps, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reps; ++r) fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

void EmitSweepRow(std::ofstream& csv, bench::BenchReport* report,
                  const char* op, kernels::Backend backend,
                  const char* precision, size_t rank, double items,
                  double seconds, double bytes) {
  const double rows_per_s = items / seconds;
  const double gb_per_s = bytes / seconds * 1e-9;
  csv << op << ',' << kernels::BackendName(backend) << ',' << precision << ','
      << rank << ',' << static_cast<uint64_t>(items) << ',' << seconds << ','
      << rows_per_s << ',' << gb_per_s << '\n';
  const std::string label = std::string(op) + "/" +
                            kernels::BackendName(backend) + "/" + precision;
  report->AddPoint("rows_per_s", label, rows_per_s);
  report->AddPoint("gb_per_s", label, gb_per_s);
  std::printf("sweep %-6s %-6s %-4s rank=%zu  %10.3e rows/s  %7.2f GB/s\n",
              op, kernels::BackendName(backend), precision, rank, rows_per_s,
              gb_per_s);
}

int RunKernelSweep(const std::string& path, const std::string& bench_out) {
  std::ofstream csv(path);
  if (!csv) {
    std::fprintf(stderr, "cannot open kernel-sweep output %s\n", path.c_str());
    return 1;
  }
  csv << "op,backend,precision,rank,items,seconds,rows_per_s,gb_per_s\n";

  constexpr size_t kRank = 16;
  bench::BenchReport report("micro_kernels");
  report.SetConfig("rank", static_cast<double>(kRank));
  report.AddMetric("rows_per_s", "1/s", "higher_better");
  report.AddMetric("gb_per_s", "GB/s", "info");
  Rng rng(99);

  // MTTKRP inputs: one synthetic, unsorted 3-mode COO stream — per
  // non-zero, a random accumulator row (mode 0) and two random non-target
  // factor rows.
  constexpr size_t kMttkrpItems = 1 << 20;
  constexpr size_t kSideRows = 4096;
  const Matrix fa = Matrix::Random(kSideRows, kRank, rng);
  const Matrix fb = Matrix::Random(kSideRows, kRank, rng);
  Matrix out(kSideRows, kRank);
  const double* nnz_factors[3] = {nullptr, fa.data(), fb.data()};
  std::vector<uint64_t> nnz_indices(kMttkrpItems * 3);
  std::vector<double> nnz_values(kMttkrpItems);
  for (size_t i = 0; i < kMttkrpItems; ++i) {
    for (size_t m = 0; m < 3; ++m) {
      nnz_indices[i * 3 + m] = rng.NextBounded(kSideRows);
    }
    nnz_values[i] = rng.NextDouble(-1.0, 1.0);
  }

  // Top-K inputs: one contiguous candidate block per precision.
  constexpr size_t kCandidates = 1 << 16;
  const Matrix cand = Matrix::Random(kCandidates, kRank, rng);
  const kernels::Bf16Matrix cand_bf16 = kernels::QuantizeBf16(cand);
  const kernels::Int8Matrix cand_i8 = kernels::QuantizeInt8(cand);
  std::vector<double> weights(kRank);
  std::vector<double> wscaled(kRank);
  for (size_t f = 0; f < kRank; ++f) {
    weights[f] = rng.NextDouble(-1.0, 1.0);
    wscaled[f] = weights[f] * cand_i8.col_scale[f];
  }
  std::vector<double> scores(kCandidates);

  for (size_t b = 0; b < kernels::kNumBackends; ++b) {
    const auto backend = static_cast<kernels::Backend>(b);
    if (!kernels::Supported(backend)) {
      std::printf("sweep: skipping %s (unsupported on this host/build)\n",
                  kernels::BackendName(backend));
      continue;
    }
    const kernels::KernelTable& kern = kernels::Get(backend);

    {
      out.Fill(0.0);
      constexpr size_t kReps = 4;
      const double secs = TimeSeconds(kReps, [&] {
        kern.mttkrp_coo(nnz_indices.data(), nnz_values.data(), kMttkrpItems,
                        3, 0, nnz_factors, kRank, out.data());
        benchmark::DoNotOptimize(out.data());
      });
      const double items = static_cast<double>(kMttkrpItems) * kReps;
      // Two factor-row reads plus an accumulator read-modify-write, and the
      // entry's three indices and value.
      const double bytes =
          items * (4.0 * kRank * sizeof(double) + 3 * sizeof(uint64_t) +
                   sizeof(double));
      EmitSweepRow(csv, &report, "mttkrp", backend, "f64", kRank, items, secs, bytes);
    }

    constexpr size_t kScanReps = 64;
    const double scan_items = static_cast<double>(kCandidates) * kScanReps;
    {
      const double secs = TimeSeconds(kScanReps, [&] {
        kern.topk_score_block(cand.RowPtr(0), kCandidates, kRank,
                              weights.data(), scores.data());
        benchmark::DoNotOptimize(scores.data());
      });
      const double bytes =
          scan_items * (kRank * sizeof(double) + sizeof(double));
      EmitSweepRow(csv, &report, "topk", backend, "f64", kRank, scan_items, secs,
                   bytes);
    }
    {
      const double secs = TimeSeconds(kScanReps, [&] {
        kern.topk_score_block_bf16(cand_bf16.RowPtr(0), kCandidates, kRank,
                                   weights.data(), scores.data());
        benchmark::DoNotOptimize(scores.data());
      });
      const double bytes =
          scan_items * (kRank * sizeof(kernels::Bf16) + sizeof(double));
      EmitSweepRow(csv, &report, "topk", backend, "bf16", kRank, scan_items, secs,
                   bytes);
    }
    {
      const double secs = TimeSeconds(kScanReps, [&] {
        kern.topk_score_block_i8(cand_i8.RowPtr(0), kCandidates, kRank,
                                 wscaled.data(), scores.data());
        benchmark::DoNotOptimize(scores.data());
      });
      const double bytes =
          scan_items * (kRank * sizeof(int8_t) + sizeof(double));
      EmitSweepRow(csv, &report, "topk", backend, "i8", kRank, scan_items, secs,
                   bytes);
    }
  }
  report.WriteFile(bench_out);
  std::printf("sweep: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace dismastd

// Custom main: benchmark_main rejects flags it does not know, so strip our
// --threads / --kernel / --kernel-sweep / --sweep-only / --bench-out flags
// before handing argv to the benchmark library.
int main(int argc, char** argv) {
  std::string sweep_path;
  std::string kernel_name;
  std::string bench_out;
  bool sweep_only = false;
  int out = 1;  // keep argv[0]
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      dismastd::g_engine_threads =
          static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      dismastd::g_engine_threads =
          static_cast<size_t>(std::atol(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      kernel_name = argv[++i];
    } else if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      kernel_name = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--kernel-sweep") == 0 && i + 1 < argc) {
      sweep_path = argv[++i];
    } else if (std::strncmp(argv[i], "--kernel-sweep=", 15) == 0) {
      sweep_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--bench-out=", 12) == 0) {
      bench_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      sweep_only = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  // A JSON report is produced by the sweep path; asking for one without a
  // CSV destination runs the sweep with a default CSV.
  if (!bench_out.empty() && sweep_path.empty()) {
    sweep_path = "micro_kernels_sweep.csv";
  }

  if (!kernel_name.empty()) {
    dismastd::Result<dismastd::kernels::Backend> backend =
        dismastd::kernels::ParseBackend(kernel_name);
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
      return 1;
    }
    dismastd::Status forced =
        dismastd::kernels::ForceBackend(backend.value());
    if (!forced.ok()) {
      std::fprintf(stderr, "%s\n", forced.ToString().c_str());
      return 1;
    }
  }
  std::printf("kernels: %s\n",
              dismastd::kernels::DispatchExplanation().c_str());

  if (!sweep_path.empty()) {
    const int rc = dismastd::RunKernelSweep(sweep_path, bench_out);
    if (rc != 0) return rc;
    if (sweep_only) return 0;
  } else if (sweep_only) {
    std::fprintf(stderr, "--sweep-only needs --kernel-sweep=FILE\n");
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
