#include "script.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/parallel.h"
#include "core/partial_agg.h"
#include "core/utility.h"
#include "net/transport/crc32.h"
#include "net/transport/frame.h"
#include "net/transport/loopback.h"
#include "net/transport/session.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace adafl::bench {

namespace nt = net::transport;

namespace {

/// Seconds one round takes on the reference box (4 cores, avx2 backend);
/// they only size the number of timed rounds.
double reference_round_s(const std::string& workload) {
  if (workload == "sim_cnn") return 0.37;
  if (workload == "fleet_1k") return 0.64;
  if (workload == "tier_1k") return 0.72;
  if (workload == "lossy_udp") return 0.68;
  throw std::invalid_argument("unknown workload " + workload);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One round's frames between the server and every client over one
/// loopback pair: MODEL and SELECT or SKIP out, SCORE and UPDATE in.
/// Returns false if a frame did not come through.
bool replay_round_frames(nt::Transport& server, nt::Transport& client,
                         const nt::Frame& model, const Script::Round& sr,
                         int r) {
  const auto pass = [](nt::Transport& from, nt::Transport& to,
                       const nt::Frame& f) {
    return from.send(f) && to.recv(std::chrono::milliseconds(0)).has_value();
  };
  const auto round = static_cast<std::uint32_t>(r);
  for (std::size_t id = 0; id < sr.scores.size(); ++id) {
    const auto cid = static_cast<std::uint32_t>(id);
    const int j = sr.slot[id];
    const nt::Frame score{nt::MsgType::kScore, round, cid,
                          nt::encode_f64(sr.scores[id])};
    const nt::Frame verdict =
        j < 0 ? nt::Frame{nt::MsgType::kSkip, round, nt::kServerId, {}}
              : nt::Frame{nt::MsgType::kSelect, round, nt::kServerId,
                          nt::encode_f64(
                              sr.ratios[static_cast<std::size_t>(j)])};
    if (!pass(server, client, model) || !pass(client, server, score) ||
        !pass(server, client, verdict))
      return false;
    if (j >= 0 && !pass(client, server,
                        {nt::MsgType::kUpdate, round, cid, sr.updates[id]}))
      return false;
  }
  return true;
}

}  // namespace

nt::UdpFecConfig lossy_fec() {
  nt::UdpFecConfig fec;
  fec.data_shards = 8;
  fec.parity_shards = 8;
  fec.max_shard_bytes = 1200;
  return fec;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Shape make_shape(const Options& opt) {
  Shape s;
  s.workload = opt.workload;
  const bool fleet = opt.workload == "fleet_1k" || opt.workload == "tier_1k";
  s.spec.dataset = "mnist";
  s.spec.dist = "noniid";
  s.spec.seed = opt.seed;
  s.spec.test_samples = 400;
  s.client.batch_size = 20;
  s.client.local_steps = 5;
  s.client.lr = 0.05f;
  if (fleet) {
    // Many small frames: an MLP fleet, K = 100, four aggregation groups
    // (one per 250 clients; each tier_1k relay covers two).
    s.spec.model = "mlp";
    s.spec.clients = opt.smoke ? 64 : 1000;
    s.spec.train_samples = 20 * s.spec.clients;
    s.params.max_selected = s.spec.clients / 10;
    s.params.agg_group = s.spec.clients / 4;
  } else {
    // The paper's MNIST CNN task (sim_cnn; lossy_udp replays the same one).
    s.spec.model = "cnn";
    s.spec.clients = opt.smoke ? 8 : 32;
    s.spec.train_samples = 1500;
    s.params.max_selected = s.spec.clients / 4;
  }
  const int timed =
      opt.smoke ? 1
                : std::max(1, static_cast<int>(std::ceil(
                                  opt.seconds /
                                  reference_round_s(opt.workload))));
  s.rounds = kWarmRounds + timed;
  // The AdaFL warm-up rounds plus four selective ones, replayed cyclically.
  s.script_rounds = std::min(s.rounds, s.params.compression.warmup_rounds + 4);
  return s;
}

int Script::source_round(int r) const {
  const int recorded = static_cast<int>(rounds.size());
  if (r <= recorded) return r;
  const int cycle = recorded - warmup_rounds;
  return warmup_rounds + 1 + (r - recorded - 1) % cycle;
}

std::size_t Script::bytes() const {
  std::size_t b = 0;
  for (const Round& r : rounds) {
    b += r.scores.size() * sizeof(double) + r.selected.size() * sizeof(int) +
         r.ratios.size() * sizeof(double) + r.slot.size() * sizeof(int);
    for (const auto& u : r.updates) b += u.size();
  }
  return b;
}

DecomposedLoop::DecomposedLoop(const Shape& shape, const cli::TaskBundle& task,
                               bool parallel_clients)
    : shape_(shape),
      task_(task),
      parallel_(parallel_clients),
      clients_(fl::make_clients(task.factory, &task.train, task.parts,
                                shape.client, {},
                                shape.spec.seed ^ core::kAdaFlClientSeedSalt)),
      eval_model_(task.factory()),
      core_(shape.params, eval_model_.get_flat()) {
  compressors_.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i)
    compressors_.emplace_back(static_cast<std::int64_t>(core_.global().size()),
                              shape.params.dgc);
}

void DecomposedLoop::round(int r, Script* script, SpanLog* spans, bool eval) {
  const int n = static_cast<int>(clients_.size());
  const auto un = static_cast<std::size_t>(n);
  const ScopedSpan round_span(spans, "round", r);
  const int parent = round_span.id();
  const auto for_clients = [&](const char* span, auto&& fn) {
    if (parallel_) {
      const ScopedSpan s(spans, span, r, parent);
      core::parallel_for(0, n, [&](std::int64_t id) { fn(static_cast<int>(id)); });
    } else {
      for (int id = 0; id < n; ++id) {
        const ScopedSpan s(spans, span, r, parent);
        fn(id);
      }
    }
  };

  results_.resize(un);
  for_clients("fl.train", [&](int id) {
    clients_[static_cast<std::size_t>(id)].train_from_into(
        core_.global(), results_[static_cast<std::size_t>(id)]);
  });

  const core::UtilityConfig& uc = shape_.params.utility;
  scores_.assign(un, 1.0);
  {
    const ScopedSpan s(spans, "core.score", r, parent);
    for (int id = 0; id < n; ++id)
      scores_[static_cast<std::size_t>(id)] = core::utility_score(
          uc, results_[static_cast<std::size_t>(id)].delta, core_.g_hat(),
          uc.bw_ref, uc.bw_ref);
  }

  core::AdaFlRoundPlan plan;
  {
    const ScopedSpan s(spans, "core.plan", r, parent);
    plan = core_.plan_round(scores_, std::vector<bool>(un, true), r);
  }

  slots_.resize(un);
  delivered_.assign(un, 0);
  is_selected_.assign(un, 0);
  std::vector<double> ratio_of(un, 0.0);
  for (std::size_t j = 0; j < plan.sel.selected.size(); ++j) {
    const auto id = static_cast<std::size_t>(plan.sel.selected[j]);
    is_selected_[id] = 1;
    ratio_of[id] = plan.ratios[j];
  }
  // Selected clients compress; the rest keep their delta as DGC residual.
  // Each client touches only its own compressor and slot, so client order
  // does not change a bit.
  const auto compress = [&](int id) {
    const auto i = static_cast<std::size_t>(id);
    const fl::FlClient::LocalResult& res = results_[i];
    if (is_selected_[i]) {
      core::AdaFlDelivery& dl = slots_[i];
      compressors_[i].compress_into(res.delta, ratio_of[i], dl.msg);
      dl.num_examples = res.num_examples;
      dl.mean_loss = res.mean_loss;
      dl.raw_delta_norm = tensor::l2_norm(res.delta);
      delivered_[i] = 1;
    } else if (shape_.params.accumulate_unselected) {
      compressors_[i].accumulate(res.delta);
    }
  };
  if (parallel_) {
    const ScopedSpan s(spans, "compress.dgc", r, parent);
    core::parallel_for(0, n,
                       [&](std::int64_t id) { compress(static_cast<int>(id)); });
  } else {
    // The trainer's order: selected clients in plan order, then the rest.
    const ScopedSpan s(spans, "compress.dgc", r, parent);
    for (const int id : plan.sel.selected) compress(id);
    for (int id = 0; id < n; ++id)
      if (!is_selected_[static_cast<std::size_t>(id)]) compress(id);
  }

  if (script != nullptr) {
    Script::Round sr;
    sr.scores = scores_;
    for (const double s : sr.scores)
      if (!(s >= 0.0 && s <= 1.0))
        throw std::runtime_error("script: utility score outside [0, 1]");
    sr.selected = plan.sel.selected;
    sr.ratios = plan.ratios;
    sr.slot.assign(un, -1);
    sr.updates.resize(un);
    std::vector<std::uint8_t> wire_scratch;
    for (std::size_t j = 0; j < sr.selected.size(); ++j) {
      const auto id = static_cast<std::size_t>(sr.selected[j]);
      sr.slot[id] = static_cast<int>(j);
      nt::UpdatePayload u;
      u.msg = slots_[id].msg;
      u.num_examples = slots_[id].num_examples;
      u.mean_loss = slots_[id].mean_loss;
      u.raw_delta_norm = slots_[id].raw_delta_norm;
      nt::encode_update_into(u, sr.updates[id], wire_scratch);
    }
    script->rounds.push_back(std::move(sr));
  }

  {
    const ScopedSpan s(spans, "core.apply", r, parent);
    core_.apply_round(plan, [this](int id) -> const core::AdaFlDelivery* {
      return delivered_[static_cast<std::size_t>(id)]
                 ? &slots_[static_cast<std::size_t>(id)]
                 : nullptr;
    });
  }

  if (eval) {
    const ScopedSpan s(spans, "nn.eval", r, parent);
    eval_model_.set_flat(core_.global());
    if (eval_batch_.size() == 0) eval_batch_ = task_.test.all();
    eval_model_.accuracy(eval_batch_);
  }
}

Script record_script(const Shape& shape, const cli::TaskBundle& task,
                     SpanLog* spans) {
  DecomposedLoop loop(shape, task, /*parallel_clients=*/true);
  Script s;
  s.clients = shape.spec.clients;
  s.warmup_rounds = shape.params.compression.warmup_rounds;
  for (int r = 1; r <= shape.script_rounds; ++r)
    loop.round(r, &s, spans, /*eval=*/false);
  s.final_crc = weights_crc(loop.global());
  return s;
}

std::vector<float> reference_replay(const Shape& shape, const Script& script,
                                    const cli::TaskBundle& task, int rounds,
                                    Result& res, LayerCosts* costs) {
  nn::Model model = task.factory();
  core::AdaFlServerCore core(shape.params, model.get_flat());
  const int n = script.clients;
  const auto un = static_cast<std::size_t>(n);
  const std::int64_t d = static_cast<std::int64_t>(core.global().size());
  const std::vector<bool> present(un, true);
  std::vector<nt::UpdatePayload> ups(un);
  std::vector<core::AdaFlDelivery> slots(un);
  std::vector<char> delivered(un, 0);
  nn::Batch eval_batch;
  if (costs != nullptr) eval_batch = task.test.all();
  const nt::UdpFecConfig fec = lossy_fec();
  nt::FrameFragmenter fragmenter(fec);
  const std::uint64_t loss_seed = mix_seed(shape.spec.seed, 0xFEC);
  core::PartialAggregator agg;
  // The relay tier's shape: groups of agg_group (one group of every client
  // without grouping), each relay claiming n/2 clients (tier_1k) or all.
  const int group = shape.params.agg_group > 0 ? shape.params.agg_group : n;
  const int relay_span = std::max(group, n / 2);
  std::unique_ptr<nt::Transport> link_server, link_client;
  if (costs != nullptr && costs->link_spans != nullptr) {
    auto [s, c] = nt::make_loopback_pair();
    link_server = std::make_unique<TimedTransport>(std::move(s), &costs->link,
                                                   costs->link_spans);
    link_client = std::move(c);
  }

  for (int r = 1; r <= rounds; ++r) {
    const Script::Round& sr = script.at(r);
    const bool timed = costs != nullptr && r >= costs->first_round;
    if (timed) ++costs->averaged_rounds;
    auto t0 = Clock::now();

    if (timed) {
      // MODEL(r): payload encode, CRC, stream parse, FEC fragmentation and
      // lossy reassembly.
      nt::ModelPayload mp{core.global(), core.g_hat()};
      t0 = Clock::now();
      std::vector<std::uint8_t> payload = nt::encode_model(mp);
      costs->model_encode_ms += ms_between(t0, Clock::now());
      t0 = Clock::now();
      const std::uint32_t crc = nt::crc32(payload);
      costs->crc_s += seconds_between(t0, Clock::now());
      costs->crc_bytes += static_cast<double>(payload.size());
      nt::Frame mf;
      mf.type = nt::MsgType::kModel;
      mf.round = static_cast<std::uint32_t>(r);
      mf.client_id = nt::kServerId;
      mf.payload = std::move(payload);
      const std::vector<std::uint8_t> enc = nt::encode_frame(mf);
      nt::FrameParser parser;
      t0 = Clock::now();
      parser.consume(enc);
      const std::optional<nt::Frame> parsed = parser.next();
      costs->parse_s += seconds_between(t0, Clock::now());
      costs->parse_bytes += static_cast<double>(enc.size());
      if (!parsed || nt::crc32(parsed->payload) != crc)
        res.fail("MODEL frame does not survive encode + parse");

      t0 = Clock::now();
      const auto dgrams = fragmenter.fragment(mf);
      costs->frag_s += seconds_between(t0, Clock::now());
      costs->frag_bytes += static_cast<double>(enc.size());
      tensor::Rng loss_rng(loss_seed ^ (0x9E3779B97F4A7C15ull *
                                        static_cast<std::uint64_t>(r)));
      std::vector<const std::vector<std::uint8_t>*> kept;
      for (const auto& dg : dgrams)
        if (loss_rng.uniform() >= kDatagramLoss) kept.push_back(&dg);
      nt::FrameReassembler reasm(fec);
      t0 = Clock::now();
      for (const auto* dg : kept) reasm.offer(*dg);
      const std::optional<nt::Frame> back = reasm.next();
      costs->reasm_s += seconds_between(t0, Clock::now());
      costs->reasm_bytes += static_cast<double>(enc.size());
      if (!back || back->payload != mf.payload) ++costs->reasm_failures;

      if (link_server) {
        in_situ_tracing().store(true);
        if (!replay_round_frames(*link_server, *link_client, mf, sr, r))
          res.fail("round " + std::to_string(r) +
                   ": a frame was lost on the loopback transport");
        in_situ_tracing().store(false);
      }
    }

    t0 = Clock::now();
    const core::AdaFlRoundPlan plan = core.plan_round(sr.scores, present, r);
    if (timed) costs->plan_ms += ms_between(t0, Clock::now());
    if (plan.sel.selected != sr.selected || plan.ratios != sr.ratios) {
      res.fail("round " + std::to_string(r) +
               ": replayed scores do not reproduce the recorded selection");
      break;
    }

    delivered.assign(un, 0);
    for (const int id : sr.selected) {
      const auto i = static_cast<std::size_t>(id);
      t0 = Clock::now();
      nt::parse_update_into(sr.updates[i], ups[i]);
      if (timed) costs->decode_ms += ms_between(t0, Clock::now());
      slots[i].msg = ups[i].msg;
      slots[i].num_examples = ups[i].num_examples;
      slots[i].mean_loss = ups[i].mean_loss;
      slots[i].raw_delta_norm = ups[i].raw_delta_norm;
      slots[i].meta_only = false;
      delivered[i] = 1;
    }

    if (timed) {
      // What the relays do per group: the ascending-id partial sum, then
      // the UPDATE_AGG frame's encode, the root's parse and validation.
      std::map<int, std::vector<int>> groups;
      for (const int id : sr.selected)
        groups[(id / group) * group].push_back(id);
      for (auto& [base, ids] : groups) {
        std::sort(ids.begin(), ids.end());
        nt::UpdateAggPayload a;
        a.base = static_cast<std::uint32_t>(base);
        a.count = static_cast<std::uint32_t>(group);
        t0 = Clock::now();
        agg.reset(static_cast<std::size_t>(d));
        for (const int id : ids) {
          const nt::UpdatePayload& u = ups[static_cast<std::size_t>(id)];
          agg.add(u.msg, static_cast<float>(u.num_examples));
          a.children.push_back({static_cast<std::uint32_t>(id), u.num_examples,
                                u.mean_loss, u.raw_delta_norm,
                                u.msg.wire_bytes});
        }
        agg.finish(a.partial);
        costs->partial_sum_ms += ms_between(t0, Clock::now());
        t0 = Clock::now();
        const std::vector<std::uint8_t> wire = nt::encode_update_agg(a);
        const nt::UpdateAggPayload back = nt::parse_update_agg(wire);
        nt::validate_update_agg(back, d, group,
                                (base / relay_span) * relay_span, relay_span);
        costs->agg_codec_ms += ms_between(t0, Clock::now());
      }
    }

    t0 = Clock::now();
    core.apply_round(plan, [&](int id) -> const core::AdaFlDelivery* {
      return delivered[static_cast<std::size_t>(id)]
                 ? &slots[static_cast<std::size_t>(id)]
                 : nullptr;
    });
    if (timed) costs->apply_ms += ms_between(t0, Clock::now());

    if (timed) {
      t0 = Clock::now();
      model.set_flat(core.global());
      model.accuracy(eval_batch);
      costs->eval_ms += ms_between(t0, Clock::now());
    }

    if (r == static_cast<int>(script.rounds.size()) &&
        weights_crc(core.global()) != script.final_crc)
      res.fail("reference replay of the script diverges from the recorded "
               "loop at round " + std::to_string(r));
  }
  return core.global();
}

void set_replay_metrics(Result& r, const LayerCosts& c) {
  const double rounds = c.averaged_rounds;
  r.set("frame.model_encode_ms", per(c.model_encode_ms, rounds), "ms");
  r.set("frame.crc_mb_per_s", 1e-6 * per(c.crc_bytes, c.crc_s), "MB/s");
  r.set("frame.parse_mb_per_s", 1e-6 * per(c.parse_bytes, c.parse_s), "MB/s");
  r.set("codec.update_decode_ms", per(c.decode_ms, rounds), "ms");
  r.set("fec.fragment_mb_per_s", 1e-6 * per(c.frag_bytes, c.frag_s), "MB/s");
  r.set("fec.reassemble_mb_per_s", 1e-6 * per(c.reasm_bytes, c.reasm_s),
        "MB/s");
  r.note("fec_replay_unrecovered_frames", std::to_string(c.reasm_failures));
  r.set("relay.partial_sum_ms", per(c.partial_sum_ms, rounds), "ms");
  r.set("relay.agg_codec_ms", per(c.agg_codec_ms, rounds), "ms");
}

void set_transport_metrics(Result& r, const TransportCounters& c,
                           double rounds) {
  const auto v = [](const std::atomic<std::int64_t>& a) {
    return static_cast<double>(a.load());
  };
  r.set("transport.send_ms", per(1e-6 * v(c.send_ns), rounds), "ms");
  r.set("transport.send_frames", per(v(c.send_frames), rounds), "count");
  r.set("transport.send_bytes", per(v(c.send_bytes), rounds), "B");
  r.set("transport.recv_ms", per(1e-6 * v(c.recv_ns), rounds), "ms");
  r.set("transport.recv_calls", per(v(c.recv_calls), rounds), "count");
  r.set("transport.recv_frames", per(v(c.recv_frames), rounds), "count");
  r.set("transport.recv_hit_ratio", per(v(c.recv_frames), v(c.recv_calls)),
        "ratio");
}

}  // namespace adafl::bench
