#include "cli/task.h"

#include <cstdio>
#include <stdexcept>

#include "tensor/check.h"

namespace adafl::cli {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // exact round-trip
  return buf;
}

std::string fmt_float(float v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

const std::string& kv_get(const std::map<std::string, std::string>& kv,
                          const std::string& key) {
  auto it = kv.find(key);
  ADAFL_CHECK_MSG(it != kv.end(), "task config: missing key '" << key << "'");
  return it->second;
}

}  // namespace

TaskSpec spec_from_args(const ArgParser& args) {
  TaskSpec s;
  s.dataset = args.get("dataset");
  s.model = args.get("model");
  s.dist = args.get("dist");
  s.alpha = args.get_double("alpha");
  s.clients = args.get_int_at_least("clients", 1);
  s.train_samples = args.get_int_at_least("train-samples", 1);
  s.test_samples = args.get_int_at_least("test-samples", 1);
  s.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  return s;
}

TaskBundle build_task(const TaskSpec& spec) {
  data::SyntheticConfig cfg;
  if (spec.dataset == "mnist")
    cfg = data::mnist_like(spec.train_samples, spec.seed);
  else if (spec.dataset == "cifar10")
    cfg = data::cifar10_like(spec.train_samples, spec.seed);
  else if (spec.dataset == "cifar100")
    cfg = data::cifar100_like(spec.train_samples, spec.seed);
  else
    throw std::runtime_error("unknown --dataset=" + spec.dataset);

  TaskBundle t{data::make_synthetic(cfg), {}, {}, nullptr};
  auto test_cfg = cfg;
  test_cfg.num_samples = spec.test_samples;
  test_cfg.seed = spec.seed + 9000;
  t.test = data::make_synthetic(test_cfg);

  tensor::Rng rng(spec.seed + 17);
  if (spec.dist == "iid")
    t.parts = data::partition_iid(t.train.size(), spec.clients, rng);
  else if (spec.dist == "noniid")
    t.parts = data::partition_shards(t.train.labels(), spec.clients, 3, rng);
  else if (spec.dist == "dirichlet")
    t.parts = data::partition_dirichlet(t.train.labels(), spec.clients,
                                        spec.alpha, rng);
  else
    throw std::runtime_error("unknown --dist=" + spec.dist);

  if (spec.model == "cnn")
    t.factory = nn::paper_cnn_factory(t.train.spec(), spec.seed + 3);
  else if (spec.model == "resnet")
    t.factory = nn::resnet_lite_factory(t.train.spec(), spec.seed + 3);
  else if (spec.model == "vgg")
    t.factory = nn::vgg_lite_factory(t.train.spec(), spec.seed + 3);
  else if (spec.model == "mlp")
    t.factory = nn::mlp_factory(t.train.spec(), 64, spec.seed + 3);
  else
    throw std::runtime_error("unknown --model=" + spec.model);
  return t;
}

std::map<std::string, std::string> task_to_kv(const TaskSpec& spec,
                                              const fl::ClientTrainConfig& c) {
  std::map<std::string, std::string> kv;
  kv["dataset"] = spec.dataset;
  kv["model"] = spec.model;
  kv["dist"] = spec.dist;
  kv["alpha"] = fmt_double(spec.alpha);
  kv["clients"] = std::to_string(spec.clients);
  kv["train_samples"] = std::to_string(spec.train_samples);
  kv["test_samples"] = std::to_string(spec.test_samples);
  kv["seed"] = std::to_string(spec.seed);
  kv["batch_size"] = std::to_string(c.batch_size);
  kv["local_steps"] = std::to_string(c.local_steps);
  kv["lr"] = fmt_float(c.lr);
  kv["momentum"] = fmt_float(c.momentum);
  kv["prox_mu"] = fmt_float(c.prox_mu);
  return kv;
}

void task_from_kv(const std::map<std::string, std::string>& kv,
                  TaskSpec* spec, fl::ClientTrainConfig* client) {
  ADAFL_CHECK_MSG(spec != nullptr && client != nullptr,
                  "task_from_kv: null output");
  spec->dataset = kv_get(kv, "dataset");
  spec->model = kv_get(kv, "model");
  spec->dist = kv_get(kv, "dist");
  spec->alpha = std::stod(kv_get(kv, "alpha"));
  spec->clients = std::stoi(kv_get(kv, "clients"));
  spec->train_samples = std::stoll(kv_get(kv, "train_samples"));
  spec->test_samples = std::stoll(kv_get(kv, "test_samples"));
  spec->seed = std::stoull(kv_get(kv, "seed"));
  client->batch_size = std::stoll(kv_get(kv, "batch_size"));
  client->local_steps = std::stoi(kv_get(kv, "local_steps"));
  client->lr = std::stof(kv_get(kv, "lr"));
  client->momentum = std::stof(kv_get(kv, "momentum"));
  client->prox_mu = std::stof(kv_get(kv, "prox_mu"));
}

}  // namespace adafl::cli
