#include "fl/trainer_common.h"

#include "metrics/registry.h"
#include "metrics/trace.h"

namespace adafl::fl {

ClientLinks::ClientLinks(const std::vector<net::LinkConfig>& configs,
                         std::size_t clients, tensor::Rng& rng,
                         std::uint64_t salt, const char* who) {
  ADAFL_CHECK_MSG(configs.empty() || configs.size() == clients,
                  who << ": need 0 or " << clients << " link configs");
  tensor::Rng link_rng = rng.fork(salt);
  for (std::size_t i = 0; i < configs.size(); ++i)
    links_.emplace_back(configs[i], link_rng.fork(i + 1));
}

std::vector<tensor::RngState> ClientLinks::rng_states() const {
  std::vector<tensor::RngState> out;
  for (const auto& l : links_) out.push_back(l.rng_state());
  return out;
}

void ClientLinks::set_rng_states(
    const std::vector<tensor::RngState>& states) {
  for (std::size_t i = 0; i < links_.size(); ++i)
    links_[i].set_rng_state(states[i]);
}

void Evaluator::end_round(TrainLog& log, std::span<const float> global,
                          int round, double time, int participants,
                          double loss_sum, bool evaluate,
                          metrics::Tracer* tracer) {
  const double loss =
      participants > 0 ? loss_sum / static_cast<double>(participants) : 0.0;
  double accuracy = 0.0;
  if (evaluate) {
    metrics::PhaseScope prof("eval");
    if (test_ != nullptr) {
      model_.set_flat(global);
      if (batch_.size() == 0) batch_ = test_->all();
      accuracy = model_.accuracy(batch_);
    }
    log.records.push_back({round, time, accuracy, loss, participants});
  }
  if (tracer != nullptr && tracer->enabled()) {
    tracer->record(metrics::ev_round_end(round, participants, loss, evaluate,
                                         accuracy, time));
    tracer->flush();
  }
}

void EvalTicks::run(net::EventQueue& queue, tensor::Rng& rng, int actors,
                    const std::function<void(int)>& start, double interval,
                    double duration, Evaluator& eval,
                    const std::vector<float>& global, TrainLog& log,
                    metrics::Tracer* tracer) {
  tracer_ = tracer;
  applied_ = since_tick_ = 0;
  loss_sum_ = 0.0;
  for (int i = 0; i < actors; ++i)
    queue.schedule(rng.uniform(0.0, 0.01), [start, i] { start(i); });
  for (double t = interval; t <= duration; t += interval) {
    queue.schedule(t, [this, &eval, &global, &log, t] {
      eval.end_round(log, global, applied_, t, since_tick_, loss_sum_, true,
                     tracer_);
      since_tick_ = 0;
      loss_sum_ = 0.0;
    });
  }
  queue.run_until(duration);
  log.total_time = queue.now();
  log.applied_updates = applied_;
}

void EvalTicks::count(int client, std::int64_t bytes, double loss) {
  ++applied_;
  ++since_tick_;
  loss_sum_ += loss;
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->record(
        metrics::ev_update_delivered(applied_, client, bytes, 0, loss));
}

core::ServerCheckpoint pack_sim_run(std::string producer, int next_round,
                                    int rounds, std::uint64_t seed,
                                    double clock, const tensor::Rng& rng,
                                    const ClientLinks& links,
                                    const std::vector<FlClient>& clients) {
  core::ServerCheckpoint ck;
  ck.producer = std::move(producer);
  ck.next_round = static_cast<std::uint32_t>(next_round);
  ck.total_rounds = static_cast<std::uint32_t>(rounds);
  ck.seed = seed;
  ck.clock = clock;
  ck.server_rng = rng.state();
  ck.link_rngs = links.rng_states();
  for (const auto& cl : clients) {
    FlClient::PersistentState ps = cl.persistent_state();
    core::ServerCheckpoint::ClientState c;
    c.loader_rng = ps.loader.rng;
    c.loader_cursor = ps.loader.cursor;
    c.loader_indices = std::move(ps.loader.indices);
    c.c_local = std::move(ps.c_local);
    ck.clients.push_back(std::move(c));
  }
  return ck;
}

void unpack_sim_run(core::ServerCheckpoint& ck, tensor::Rng& rng,
                    ClientLinks& links, std::vector<FlClient>& clients) {
  rng.set_state(*ck.server_rng);
  links.set_rng_states(ck.link_rngs);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    core::ServerCheckpoint::ClientState& c = ck.clients[i];
    FlClient::PersistentState ps;
    ps.loader.rng = c.loader_rng;
    ps.loader.cursor = c.loader_cursor;
    ps.loader.indices = std::move(c.loader_indices);
    ps.c_local = std::move(c.c_local);
    clients[i].set_persistent_state(std::move(ps));
  }
}

}  // namespace adafl::fl
