// Kernel/threading micro-benchmarks for the deterministic execution layer.
//
// Times the blocked matmul kernels, Conv2d forward/backward (a padded 3x3
// layer and the paper CNN's two layers), DGC compression, and one full
// synchronous FL round at 1/2/4/8 worker threads, plus the
// single-threaded CRC-32 kernel over one MODEL frame, that frame's stream
// parse in TCP-sized reads, the Reed-Solomon encode and repair of one
// lossy_udp MODEL frame, and that frame's trip
// through the UDP transport's fragmenter and reassembler — once per available
// kernel backend (scalar always, avx2 when the CPU supports it) — and writes
// the results to bench_results/BENCH_kernels.json along with the detected
// CPU features. Because the execution layer is bitwise deterministic
// within a backend, every timing below computes the exact same numbers at
// every thread count — only the wall clock changes.
//
// Usage:
//   bench_kernels                  # full sweep
//   ADAFL_BENCH_SCALE=0.3 bench_kernels   # quicker smoke pass
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "compress/dgc.h"
#include "core/parallel.h"
#include "fl/client.h"
#include "net/fec/rs.h"
#include "net/transport/crc32.h"
#include "net/transport/frame.h"
#include "net/transport/udp.h"
#include "nn/conv2d.h"
#include "tensor/dispatch.h"
#include "tensor/ops.h"

namespace {

using namespace adafl;

/// Wall-clock of the best of `reps` runs (min filters scheduler noise).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string bench;
  std::string backend;  ///< kernel backend this row was measured under
  std::int64_t size = 0;
  int threads = 0;
  double seconds = 0.0;
  double gflops = 0.0;  ///< 0 when a FLOP count is not meaningful
  double gb_per_s = 0.0;  ///< byte-stream kernels: size bytes / seconds
  double mb_per_s = 0.0;  ///< frame_parse: size bytes / seconds
};

void write_json(const std::vector<Row>& rows) {
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/BENCH_kernels.json";
  std::ofstream os(path);
  os << std::setprecision(6);
  os << "{\n  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ",\n  \"cpu_features\": \"" << tensor::cpu_feature_string()
     << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "    {\"bench\": \"" << r.bench << "\", \"backend\": \""
       << r.backend << "\", \"size\": " << r.size
       << ", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds;
    if (r.gflops > 0.0) os << ", \"gflops\": " << r.gflops;
    if (r.gb_per_s > 0.0) os << ", \"gb_per_s\": " << r.gb_per_s;
    if (r.mb_per_s > 0.0) os << ", \"mb_per_s\": " << r.mb_per_s;
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "[json] " << path << "\n";
}

void report(const Row& r) {
  std::cout << "  " << std::left << std::setw(16) << r.bench << " backend="
            << std::setw(7) << r.backend << " size=" << std::setw(7) << r.size
            << " threads=" << r.threads << "  " << std::fixed
            << std::setprecision(4) << r.seconds << " s";
  if (r.gflops > 0.0)
    std::cout << "  (" << std::setprecision(2) << r.gflops << " GFLOP/s)";
  if (r.gb_per_s > 0.0)
    std::cout << "  (" << std::setprecision(2) << r.gb_per_s << " GB/s)";
  if (r.mb_per_s > 0.0)
    std::cout << "  (" << std::setprecision(1) << r.mb_per_s << " MB/s)";
  std::cout << "\n";
}

}  // namespace

int main() {
  // Floors of 2/3 reps keep min-of-reps meaningful even in an
  // ADAFL_BENCH_SCALE smoke pass — a single sample cannot filter a
  // transient frequency throttle, and the bench gate compares these
  // numbers across machines.
  const int reps_big = std::max(2, static_cast<int>(2 * bench::scale()));
  const int reps_small = std::max(3, static_cast<int>(5 * bench::scale()));
  std::vector<Row> rows;
  const std::vector<int> thread_counts{1, 2, 4, 8};

  // Fixed inputs shared across thread counts so every config multiplies the
  // same matrices.
  tensor::Rng rng(42);
  std::vector<std::int64_t> sizes{256, 512, 1024};
  std::vector<std::pair<tensor::Tensor, tensor::Tensor>> mats;
  for (auto n : sizes)
    mats.emplace_back(tensor::Tensor::randn({n, n}, rng),
                      tensor::Tensor::randn({n, n}, rng));

  const std::int64_t conv_batch = 16;
  tensor::Tensor conv_in =
      tensor::Tensor::randn({conv_batch, 8, 16, 16}, rng);
  // The paper CNN's conv inputs at batch 20, from their own stream so the
  // inputs drawn below stay what they were.
  tensor::Rng cnn_rng(43);
  const tensor::Tensor cnn1_in =
      tensor::Tensor::randn({20, 1, 16, 16}, cnn_rng);
  const tensor::Tensor cnn2_in =
      tensor::Tensor::randn({20, 20, 6, 6}, cnn_rng);

  const std::int64_t dgc_dim = 1 << 18;
  std::vector<float> dgc_grad(static_cast<std::size_t>(dgc_dim));
  for (auto& v : dgc_grad) v = static_cast<float>(rng.normal());

  // One fleet_1k MODEL frame's payload (137 KB), checksummed as every frame
  // send and parse does.
  std::vector<std::uint8_t> crc_buf(140296);
  for (auto& b : crc_buf) b = static_cast<std::uint8_t>(rng.next_u64() >> 56);
  // The same payload as one encoded MODEL frame, for the stream parser.
  net::transport::Frame parse_model;
  parse_model.type = net::transport::MsgType::kModel;
  parse_model.payload = crc_buf;
  const std::vector<std::uint8_t> parse_stream =
      net::transport::encode_frame(parse_model);

  // One lossy_udp MODEL frame (449 KB) as RS(8+8) generations of 1200-byte
  // shards, laid out generation by generation: 8 data shards, then 8
  // parity shards.
  constexpr std::size_t kFecK = 8;
  constexpr std::size_t kFecN = 16;
  constexpr std::size_t kFecShard = 1200;
  constexpr std::size_t kFecFrame = 449000;
  constexpr std::size_t kFecGens =
      (kFecFrame + kFecK * kFecShard - 1) / (kFecK * kFecShard);
  std::vector<std::uint8_t> fec_buf(kFecGens * kFecN * kFecShard);
  for (auto& b : fec_buf) b = static_cast<std::uint8_t>(rng.next_u64() >> 56);
  const net::fec::RsCode rs(static_cast<int>(kFecN), static_cast<int>(kFecK));
  // Every generation's shard pointers, for encode and repair alike.
  const auto for_each_gen = [&](auto&& fn) {
    std::vector<std::uint8_t*> ptr(kFecN);
    for (std::size_t g = 0; g < kFecGens; ++g) {
      for (std::size_t i = 0; i < kFecN; ++i)
        ptr[i] = fec_buf.data() + (g * kFecN + i) * kFecShard;
      fn(ptr.data());
    }
  };
  // Three lost data shards per generation.
  std::vector<bool> fec_present(kFecN, true);
  fec_present[1] = fec_present[4] = fec_present[6] = false;

  // The same 449,000-byte MODEL frame, whole, for the UDP transport's
  // fragmenter and reassembler at the lossy_udp geometry.
  net::transport::Frame udp_model;
  udp_model.type = net::transport::MsgType::kModel;
  udp_model.payload.resize(kFecFrame - net::transport::kFrameHeaderBytes);
  for (auto& b : udp_model.payload)
    b = static_cast<std::uint8_t>(rng.next_u64() >> 56);
  const auto udp_bytes = std::make_shared<const std::vector<std::uint8_t>>(
      net::transport::encode_frame(udp_model));
  net::transport::UdpFecConfig udp_cfg;
  udp_cfg.data_shards = static_cast<int>(kFecK);
  udp_cfg.parity_shards = static_cast<int>(kFecN - kFecK);
  udp_cfg.max_shard_bytes = kFecShard;

  // Per-backend sweep: scalar always, avx2 when the CPU/build supports it.
  // Inputs are shared across backends and thread counts, so every row times
  // the same computation.
  std::vector<tensor::KernelBackend> backends{tensor::KernelBackend::kScalar};
  if (tensor::cpu_supports_avx2())
    backends.push_back(tensor::KernelBackend::kAvx2);
  else
    std::cout << "(avx2 backend unavailable: cpu features "
              << tensor::cpu_feature_string() << ")\n";

  for (tensor::KernelBackend backend : backends) {
  tensor::set_kernel_backend(backend);
  const std::string bk = tensor::kernel_backend_name(backend);
  {
    // Single-threaded: seconds per pass, each sample the mean of 200.
    constexpr int kPasses = 200;
    Row r{"crc32", bk, static_cast<std::int64_t>(crc_buf.size()), 1,
          best_seconds(reps_small,
                       [&] {
                         for (int p = 0; p < kPasses; ++p)
                           (void)net::transport::crc32(crc_buf);
                       }) /
              kPasses,
          0.0};
    r.gb_per_s = static_cast<double>(crc_buf.size()) / r.seconds * 1e-9;
    report(r);
    rows.push_back(r);
  }
  {
    // Single-threaded, report-only: the frame through one connection's
    // FrameParser::consume in TcpTransport's 16 KB reads (header and CRC
    // checks, the partial frame's buffering, the payload copy); seconds per
    // frame, each sample the mean of 50.
    constexpr int kPasses = 50;
    constexpr std::size_t kRead = 16384;
    const std::span<const std::uint8_t> stream(parse_stream);
    net::transport::FrameParser parser;
    std::optional<net::transport::Frame> back;
    const auto parse = [&] {
      for (int p = 0; p < kPasses; ++p) {
        for (std::size_t off = 0; off < stream.size(); off += kRead)
          parser.consume(
              stream.subspan(off, std::min(kRead, stream.size() - off)));
        back = parser.next();
      }
    };
    Row r{"frame_parse", bk, static_cast<std::int64_t>(stream.size()), 1,
          best_seconds(reps_small, parse) / kPasses, 0.0};
    if (!back || back->payload != crc_buf || parser.pending_bytes() != 0) {
      std::cerr << "frame_parse did not rebuild the frame\n";
      return 1;
    }
    r.mb_per_s = static_cast<double>(stream.size()) / r.seconds * 1e-6;
    report(r);
    rows.push_back(r);
  }
  {
    // Single-threaded, report-only: parity for every generation, then the
    // repair of each generation's three lost data shards (rebuilt in place,
    // so every rep repeats the same work). GB/s are frame bytes per second.
    const auto encode = [&] {
      for_each_gen([&](std::uint8_t** p) {
        rs.encode_shards(p, p + kFecK, kFecShard);
      });
    };
    Row enc{"fec_encode", bk, static_cast<std::int64_t>(kFecFrame), 1,
            best_seconds(reps_small, encode), 0.0};
    const std::vector<std::uint8_t> sent = fec_buf;
    for_each_gen([&](std::uint8_t** p) {
      for (std::size_t i = 0; i < kFecK; ++i)
        if (!fec_present[i]) std::fill_n(p[i], kFecShard, std::uint8_t{0});
    });
    bool repaired = true;
    const auto repair = [&] {
      for_each_gen([&](std::uint8_t** p) {
        repaired = rs.reconstruct_shards(p, fec_present, kFecShard) && repaired;
      });
    };
    Row rep{"fec_repair", bk, static_cast<std::int64_t>(kFecFrame), 1,
            best_seconds(reps_small, repair), 0.0};
    if (!repaired || fec_buf != sent) {
      std::cerr << "fec_repair did not restore the lost shards\n";
      return 1;
    }
    for (Row* r : {&enc, &rep}) {
      r->gb_per_s = static_cast<double>(kFecFrame) / r->seconds * 1e-9;
      report(*r);
      rows.push_back(*r);
    }
  }
  {
    // Single-threaded, report-only, no loss: a broadcast's first peer
    // builds the frame's FEC image (interleave, parity and each datagram's
    // frame_seq-0 CRC) and stamps its 752 headers; a later peer only
    // stamps them from the image (udp_stamp); the receiver checks the
    // datagram CRCs it needs, completes every generation and deinterleaves
    // the frame. GB/s are frame bytes per second.
    namespace nt = net::transport;
    nt::FrameFragmenter frag(udp_cfg);
    const auto fragment = [&] {
      nt::FrameImage slot{udp_bytes, nullptr};
      (void)frag.fragment(udp_model, slot);
    };
    Row fr{"udp_fragment", bk, static_cast<std::int64_t>(kFecFrame), 1,
           best_seconds(reps_small, fragment), 0.0};
    nt::FrameImage shared{udp_bytes, nullptr};
    (void)frag.fragment(udp_model, shared);
    const auto stamp = [&] { (void)frag.fragment(udp_model, shared); };
    Row st{"udp_stamp", bk, static_cast<std::int64_t>(kFecFrame), 1,
           best_seconds(reps_small, stamp), 0.0};
    const std::vector<std::vector<std::uint8_t>> dgrams =
        frag.fragment(udp_model);
    std::optional<nt::Frame> back;
    const auto reassemble = [&] {
      nt::FrameReassembler reasm(udp_cfg);
      for (const auto& d : dgrams) reasm.offer(d);
      back = reasm.next();
    };
    Row ra{"udp_reassemble", bk, static_cast<std::int64_t>(kFecFrame), 1,
           best_seconds(reps_small, reassemble), 0.0};
    if (!back || back->payload != udp_model.payload) {
      std::cerr << "udp_reassemble did not rebuild the frame\n";
      return 1;
    }
    for (Row* r : {&fr, &st, &ra}) {
      r->gb_per_s = static_cast<double>(kFecFrame) / r->seconds * 1e-9;
      report(*r);
      rows.push_back(*r);
    }
  }
  for (int threads : thread_counts) {
    core::set_num_threads(threads);
    std::cout << "--- backend=" << bk << " threads=" << threads << " ---\n";

    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const auto n = sizes[si];
      const int reps = n >= 1024 ? reps_big : reps_small;
      const double flops = 2.0 * static_cast<double>(n) * n * n;
      tensor::Tensor out;
      Row r{"matmul", bk, n, threads,
            best_seconds(reps,
                         [&] {
                           out = tensor::matmul(mats[si].first,
                                                mats[si].second);
                         }),
            0.0};
      r.gflops = flops / r.seconds * 1e-9;
      report(r);
      rows.push_back(r);

      Row rnt{"matmul_nt", bk, n, threads,
              best_seconds(reps,
                           [&] {
                             out = tensor::matmul_nt(mats[si].first,
                                                     mats[si].second);
                           }),
              0.0};
      rnt.gflops = flops / rnt.seconds * 1e-9;
      report(rnt);
      rows.push_back(rnt);
    }

    {
      // Conv2d forward/backward: the padded 8->16 3x3 layer (conv2d_fwd /
      // conv2d_bwd), then the paper CNN's two layers at its training batch
      // (_cnn1: 1->20 k5 on 16x16; _cnn2: 20->50 k5 on 6x6).
      const auto conv_rows = [&](const std::string& tag, nn::Conv2d& conv,
                                 const tensor::Tensor& in) {
        tensor::Tensor y = conv.forward(in, true);
        Row fwd{"conv2d_fwd" + tag, bk, in.shape()[0], threads,
                best_seconds(reps_small, [&] { y = conv.forward(in, true); }),
                0.0};
        report(fwd);
        rows.push_back(fwd);
        Row bwd{"conv2d_bwd" + tag, bk, in.shape()[0], threads,
                best_seconds(reps_small, [&] { (void)conv.backward(y); }),
                0.0};
        report(bwd);
        rows.push_back(bwd);
      };
      tensor::Rng layer_rng(7);
      nn::Conv2d conv(8, 16, 3, layer_rng, 1, 1);
      conv_rows("", conv, conv_in);
      nn::Conv2d cnn1(1, 20, 5, layer_rng);
      conv_rows("_cnn1", cnn1, cnn1_in);
      nn::Conv2d cnn2(20, 50, 5, layer_rng);
      conv_rows("_cnn2", cnn2, cnn2_in);
    }

    {
      compress::DgcCompressor dgc(dgc_dim, {});
      Row r{"dgc_compress", bk, dgc_dim, threads,
            best_seconds(reps_small, [&] { (void)dgc.compress(dgc_grad); }),
            0.0};
      report(r);
      rows.push_back(r);
    }

    {
      // End-to-end per-client round on the zero-allocation hot path:
      // train_from_into + DGC compress_into over 8 CNN clients, reusing all
      // buffers across reps exactly as the simulator/deployed loops do. The
      // first (untimed) pass warms every arena/buffer, so the timed reps
      // measure the steady state the allocation regression test pins.
      auto task = bench::mnist_task(8, bench::Dist::kIid, 1, 480, 120);
      auto clients = fl::make_clients(task.factory, &task.train, task.parts,
                                      task.client, {}, 1);
      nn::Model probe(task.factory());
      const std::vector<float> global = probe.get_flat();
      const auto dim = static_cast<std::int64_t>(global.size());
      std::vector<compress::DgcCompressor> dgcs;
      dgcs.reserve(clients.size());
      for (std::size_t i = 0; i < clients.size(); ++i)
        dgcs.emplace_back(dim, compress::DgcConfig{});
      std::vector<fl::FlClient::LocalResult> results(clients.size());
      std::vector<compress::EncodedGradient> msgs(clients.size());
      auto one_round = [&] {
        for (std::size_t i = 0; i < clients.size(); ++i) {
          clients[i].train_from_into(global, results[i]);
          dgcs[i].compress_into(results[i].delta, 0.0, msgs[i]);
        }
      };
      one_round();  // warm all arenas/buffers
      Row r{"client_round", bk, static_cast<std::int64_t>(clients.size()),
            threads, best_seconds(reps_small, one_round), 0.0};
      report(r);
      rows.push_back(r);
    }

    {
      // One synchronous FedAvg round over 8 CNN clients — the end-to-end
      // number the per-client parallelism targets.
      auto task = bench::mnist_task(8, bench::Dist::kIid, 1, 480, 120);
      fl::SyncConfig cfg;
      cfg.rounds = 1;
      cfg.participation = 1.0;
      cfg.client = task.client;
      cfg.seed = 1;
      Row r{"sync_round", bk, 8, threads,
            best_seconds(1,
                         [&] {
                           fl::SyncTrainer t(cfg, task.factory, &task.train,
                                             task.parts, &task.test);
                           (void)t.run();
                         }),
            0.0};
      report(r);
      rows.push_back(r);
    }
  }
  }
  core::set_num_threads(0);
  tensor::set_kernel_backend(tensor::KernelBackend::kScalar);

  write_json(rows);
  return 0;
}
