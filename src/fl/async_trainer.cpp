#include "fl/async_trainer.h"

#include <cmath>
#include <utility>

#include "core/parallel.h"

namespace adafl::fl {

std::vector<DeviceProfile> AsyncFaults::devices_for(
    std::vector<DeviceProfile> devices, std::size_t n, const char* who) const {
  if (devices.empty()) devices.assign(n, workstation());
  ADAFL_CHECK_MSG(devices.size() == n, who << ": need 0 or " << n
                                           << " devices");
  if (straggler_slowdown > 1.0)
    for (std::size_t i = 0; i < n; ++i)
      if (unreliable(static_cast<int>(i), n))
        devices[i] = straggler(devices[i], straggler_slowdown);
  return devices;
}

AsyncTrainer::AsyncTrainer(AsyncConfig cfg, nn::ModelFactory factory,
                           const data::Dataset* train, data::Partition parts,
                           const data::Dataset* test,
                           std::vector<DeviceProfile> devices)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      clients_(make_clients(
          factory_, train, parts, cfg_.client,
          cfg_.faults.devices_for(std::move(devices), parts.size(),
                                  "AsyncTrainer"),
          cfg_.seed ^ 0xA51C57ULL)),
      eval_(factory_, test),
      rng_(cfg_.seed),
      links_(cfg_.links, clients_.size(), rng_, 0xFEED, "AsyncTrainer"),
      global_(eval_.weights()) {
  ADAFL_CHECK_MSG(test != nullptr, "AsyncTrainer: null test set");
  ADAFL_CHECK_MSG(cfg_.duration > 0, "AsyncTrainer: duration must be positive");
  ADAFL_CHECK_MSG(cfg_.buffer_size > 0, "AsyncTrainer: buffer_size >= 1");
}

TrainLog AsyncTrainer::run() {
  TrainLog log;
  log_ = &log;
  dense_bytes_ = dense_update_bytes(global_.size());
  log.dense_update_bytes = dense_bytes_;
  buffer_sum_.assign(global_.size(), 0.0f);
  buffered_ = 0;
  training_.clear();
  training_.resize(clients_.size());

  // Every client's first cycle starts slightly staggered so version
  // counters differentiate.
  ticks_.run(
      queue_, rng_, static_cast<int>(clients_.size()),
      [this](int id) { start_cycle(id); }, cfg_.eval_interval, cfg_.duration,
      eval_, global_, log, cfg_.tracer);
  // Join training tasks whose arrival events fell past the horizon: the
  // client state they mutate must settle before run() returns (the serial
  // schedule trained at cycle start, so these trainings "happened" too).
  for (auto& p : training_)
    if (p) {
      p->done.get();
      p.reset();
    }
  log_ = nullptr;
  return log;
}

void AsyncTrainer::start_cycle(int client_id) {
  if (cfg_.max_updates > 0 && ticks_.applied() >= cfg_.max_updates) return;
  FlClient& cl = clients_[static_cast<std::size_t>(client_id)];
  const std::int64_t version_at_start = version_;

  // A lost upload schedules a retry cycle without consuming the previous
  // training task; settle it first — the client's loader/model state must
  // be quiescent before we read it or train again.
  take_training(client_id);

  // Download leg.
  const bool unreliable = cfg_.faults.unreliable(client_id, clients_.size());
  const double down_t = cfg_.faults.stretch(
      links_.download(client_id, dense_bytes_, queue_.now()).duration,
      unreliable);
  log_->ledger.record_download(client_id, dense_bytes_);

  // Local training happens "now" algorithmically but costs simulated time.
  // The actual number crunching is dispatched to the thread pool against a
  // snapshot of the current global model — the result is identical to the
  // serial schedule, it just overlaps in wall-clock time with other
  // clients' cycles. The simulated compute time is predicted up front (the
  // loader's batch boundaries don't depend on training), so the arrival
  // event can be scheduled before the task finishes.
  const double compute_t = cl.predicted_compute_seconds();
  auto task = std::make_unique<PendingTrain>();
  task->predicted_seconds = compute_t;
  auto snapshot = std::make_shared<std::vector<float>>(global_);
  PendingTrain* t = task.get();
  task->done = core::submit_task([t, &cl, snapshot] {
    t->res = cl.train_from(*snapshot);
    t->local.resize(snapshot->size());
    for (std::size_t i = 0; i < t->local.size(); ++i)
      t->local[i] = (*snapshot)[i] - t->res.delta[i];
  });
  training_[static_cast<std::size_t>(client_id)] = std::move(task);

  // Upload leg.
  const net::TransferResult up =
      links_.upload(client_id, dense_bytes_, queue_.now());
  const double up_t = cfg_.faults.stretch(up.duration, unreliable);
  bool ok = up.delivered;
  if (cfg_.faults.drops(unreliable, rng_)) ok = false;

  const double arrival = down_t + compute_t + up_t;
  if (ok) {
    queue_.schedule_in(arrival, [this, client_id, version_at_start] {
      auto done = take_training(client_id);
      on_arrival(client_id, std::move(done->local), std::move(done->res.delta),
                 version_at_start, done->res.mean_loss);
    });
  } else {
    // Lost upload: bytes were spent, nothing arrives; client retries with a
    // fresh cycle after the wasted round-trip.
    queue_.schedule_in(arrival, [this, client_id] { start_cycle(client_id); });
  }
  log_->ledger.record_upload(client_id, dense_bytes_, ok);
}

std::unique_ptr<AsyncTrainer::PendingTrain> AsyncTrainer::take_training(
    int client_id) {
  auto task = std::move(training_[static_cast<std::size_t>(client_id)]);
  if (!task) return nullptr;
  task->done.get();
  ADAFL_CHECK_MSG(task->res.compute_seconds == task->predicted_seconds,
                  "AsyncTrainer: predicted compute time diverged for client "
                      << client_id);
  return task;
}

void AsyncTrainer::on_arrival(int client_id, std::vector<float> local,
                              std::vector<float> delta,
                              std::int64_t version_at_start, float loss) {
  // The update cap applies to *applied* updates: in-flight arrivals beyond
  // the cap are discarded.
  if (cfg_.max_updates > 0 && ticks_.applied() >= cfg_.max_updates) return;
  const std::int64_t staleness = version_ - version_at_start;
  switch (cfg_.algo) {
    case AsyncAlgorithm::kFedAsync:
      apply_fedasync(local, staleness);
      break;
    case AsyncAlgorithm::kFedBuff:
      apply_fedbuff(delta, staleness);
      break;
  }
  ticks_.count(client_id, dense_bytes_, loss);
  // Client immediately begins its next cycle.
  start_cycle(client_id);
}

void AsyncTrainer::apply_fedasync(std::span<const float> local,
                                  std::int64_t staleness) {
  const float a =
      cfg_.alpha * std::pow(1.0f + static_cast<float>(staleness),
                            -cfg_.staleness_exponent);
  for (std::size_t i = 0; i < global_.size(); ++i)
    global_[i] = (1.0f - a) * global_[i] + a * local[i];
  ++version_;
}

void AsyncTrainer::apply_fedbuff(std::span<const float> delta,
                                 std::int64_t staleness) {
  const float s =
      1.0f / std::sqrt(1.0f + static_cast<float>(staleness));
  for (std::size_t i = 0; i < buffer_sum_.size(); ++i)
    buffer_sum_[i] += s * delta[i];
  if (++buffered_ < cfg_.buffer_size) return;
  const float step = cfg_.server_lr / static_cast<float>(buffered_);
  for (std::size_t i = 0; i < global_.size(); ++i)
    global_[i] -= step * buffer_sum_[i];
  std::fill(buffer_sum_.begin(), buffer_sum_.end(), 0.0f);
  buffered_ = 0;
  ++version_;
}

}  // namespace adafl::fl
