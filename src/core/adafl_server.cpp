#include "core/adafl_server.h"

#include <algorithm>

#include "core/parallel.h"
#include "core/server_checkpoint.h"
#include "metrics/trace.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace adafl::core {

AdaFlServerCore::AdaFlServerCore(AdaFlParams params,
                                 std::vector<float> initial_global)
    : params_(std::move(params)),
      controller_(params_.compression),
      global_(std::move(initial_global)),
      g_hat_(global_.size(), 0.0f) {
  ADAFL_CHECK_MSG(!global_.empty(), "AdaFlServerCore: empty global model");
  stats_.min_ratio_used = params_.compression.ratio_max;
}

void AdaFlServerCore::restore(State s) {
  ADAFL_CHECK_MSG(s.global.size() == global_.size(),
                  "AdaFlServerCore: restore global has "
                      << s.global.size() << " params, core has "
                      << global_.size());
  ADAFL_CHECK_MSG(s.g_hat.size() == g_hat_.size(),
                  "AdaFlServerCore: restore g_hat dimension mismatch");
  ADAFL_CHECK_MSG(s.rounds_planned >= 0 && s.selected_sum >= 0,
                  "AdaFlServerCore: restore counters negative");
  global_ = std::move(s.global);
  g_hat_ = std::move(s.g_hat);
  stats_ = s.stats;
  selected_sum_ = s.selected_sum;
  rounds_planned_ = s.rounds_planned;
}

void save_core_state(AdaFlServerCore::State st, ServerCheckpoint& ck) {
  ck.global = std::move(st.global);
  ck.adafl = ServerCheckpoint::AdaFlCoreState{
      .g_hat = std::move(st.g_hat),
      .selected_updates = st.stats.selected_updates,
      .skipped_clients = st.stats.skipped_clients,
      .min_ratio_used = st.stats.min_ratio_used,
      .max_ratio_used = st.stats.max_ratio_used,
      .mean_selected_per_round = st.stats.mean_selected_per_round,
      .selected_sum = st.selected_sum,
      .rounds_planned = st.rounds_planned};
}

AdaFlServerCore::State take_core_state(ServerCheckpoint& ck) {
  ADAFL_CHECK_MSG(ck.adafl.has_value(),
                  "server checkpoint: missing AdaFL server state");
  ServerCheckpoint::AdaFlCoreState& a = *ck.adafl;
  return {.global = std::move(ck.global),
          .g_hat = std::move(a.g_hat),
          .stats = {.selected_updates = a.selected_updates,
                    .skipped_clients = a.skipped_clients,
                    .min_ratio_used = a.min_ratio_used,
                    .max_ratio_used = a.max_ratio_used,
                    .mean_selected_per_round = a.mean_selected_per_round},
          .selected_sum = a.selected_sum,
          .rounds_planned = a.rounds_planned};
}

AdaFlRoundPlan AdaFlServerCore::plan_round(const std::vector<double>& scores,
                                           const std::vector<bool>& present,
                                           int round) {
  ADAFL_CHECK_MSG(scores.size() == present.size(),
                  "plan_round: scores/present size mismatch");
  AdaFlRoundPlan plan;
  plan.round = round;
  plan.warmup = controller_.in_warmup(round);

  // Compact to the clients that actually reported a score this round; a
  // client lost to the network simply cannot be selected.
  std::vector<double> cscores;
  std::vector<int> cids;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!present[i]) continue;
    cscores.push_back(scores[i]);
    cids.push_back(static_cast<int>(i));
  }

  SelectionResult csel;
  if (plan.warmup) {
    // Warm-up: equal participation — every reporting client is selected.
    for (std::size_t j = 0; j < cids.size(); ++j)
      csel.selected.push_back(static_cast<int>(j));
  } else {
    csel = select_clients(cscores, params_.max_selected, params_.tau);
  }

  // Ratios are assigned on the compact index space (normalize_selected only
  // reads the selected entries, so this matches the simulator's full-vector
  // call bit for bit), then ids are mapped back.
  const std::vector<double> norm = normalize_selected(cscores, csel.selected);
  plan.ratios.reserve(csel.selected.size());
  for (std::size_t j = 0; j < csel.selected.size(); ++j) {
    const double ratio = controller_.ratio_for(norm[j], round);
    stats_.min_ratio_used = std::min(stats_.min_ratio_used, ratio);
    stats_.max_ratio_used = std::max(stats_.max_ratio_used, ratio);
    plan.ratios.push_back(ratio);
    plan.sel.selected.push_back(cids[static_cast<std::size_t>(
        csel.selected[j])]);
  }
  for (int j : csel.below_threshold)
    plan.sel.below_threshold.push_back(
        cids[static_cast<std::size_t>(j)]);

  if (tracer_ != nullptr && tracer_->enabled()) {
    // Selected clients in selection order (aligned with plan.ratios), then
    // every present-but-unselected client in ascending id order — a fully
    // deterministic emission order shared by both paths.
    for (std::size_t j = 0; j < csel.selected.size(); ++j)
      tracer_->record(metrics::ev_client_selected(
          round, plan.sel.selected[j],
          cscores[static_cast<std::size_t>(csel.selected[j])],
          plan.ratios[j]));
    std::vector<bool> is_selected(cids.size(), false);
    for (int j : csel.selected) is_selected[static_cast<std::size_t>(j)] = true;
    for (std::size_t j = 0; j < cids.size(); ++j)
      if (!is_selected[j])
        tracer_->record(
            metrics::ev_client_skipped(round, cids[j], cscores[j]));
  }

  stats_.skipped_clients += static_cast<std::int64_t>(cids.size()) -
                            static_cast<std::int64_t>(plan.sel.selected.size());
  selected_sum_ += static_cast<std::int64_t>(plan.sel.selected.size());
  ++rounds_planned_;
  stats_.mean_selected_per_round =
      static_cast<double>(selected_sum_) /
      static_cast<double>(rounds_planned_);
  return plan;
}

AdaFlRoundOutcome AdaFlServerCore::apply_round(
    const AdaFlRoundPlan& plan,
    const std::map<int, AdaFlDelivery>& deliveries) {
  return apply_round(plan, [&deliveries](int id) -> const AdaFlDelivery* {
    auto it = deliveries.find(id);
    return it == deliveries.end() ? nullptr : &it->second;
  });
}

AdaFlRoundOutcome AdaFlServerCore::apply_round(
    const AdaFlRoundPlan& plan,
    const std::function<const AdaFlDelivery*(int)>& find) {
  return apply_round(plan, find, nullptr);
}

AdaFlRoundOutcome AdaFlServerCore::apply_round(
    const AdaFlRoundPlan& plan,
    const std::function<const AdaFlDelivery*(int)>& find,
    const std::function<const compress::EncodedGradient*(int)>&
        wire_partial) {
  const std::size_t d = global_.size();
  const int group = params_.agg_group;
  ADAFL_CHECK_MSG(group > 0 || wire_partial == nullptr,
                  "apply_round: wire partials require agg_group > 0");
  // Sparse error-feedback aggregation: sum the weighted sparse messages and
  // divide by the total delivered weight (the unbiased FedAvg estimate —
  // unsent mass stays in each client's DGC residual and is flushed in later
  // rounds).
  //
  // The aggregation is sharded over the ELEMENT dimension, not over
  // clients: each parallel chunk owns a contiguous slice [lo, hi) of the
  // sum buffer and walks the deliveries in selection order, accumulating
  // only the coordinates that fall in its slice (top-k indices are sorted
  // ascending, so the in-range run is found by binary search). Every
  // element's additions therefore happen in selection order — exactly the
  // sequential order — making the result bitwise identical at any thread
  // count, while the disjoint slices concatenated in chunk order are the
  // deterministic shard-order reduction. All buffers are members reused
  // across rounds (assign/clear keep capacity): zero allocations in steady
  // state.
  std::vector<float>& sum_delta = sum_delta_;
  sum_delta.assign(d, 0.0f);
  double weight_sum = 0.0;
  double delta_norm_wsum = 0.0;  // for the server trust region
  AdaFlRoundOutcome out;
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  // Sequential pre-pass in selection order: validation (CheckError must
  // never escape a pool thread), trace events (the tracer is not
  // thread-safe), and the scalar accumulators.
  delivered_ptrs_.clear();
  delivered_by_id_.clear();
  for (int id : plan.sel.selected) {
    const AdaFlDelivery* found = find(id);
    if (found == nullptr) {  // lost in transit
      if (traced) tracer_->record(metrics::ev_update_lost(plan.round, id));
      continue;
    }
    const AdaFlDelivery& dl = *found;
    if (dl.meta_only) {
      // The coordinates live in a relay's wire partial; only the metadata
      // is validated here, the partial itself below.
      ADAFL_CHECK_MSG(group > 0,
                      "apply_round: meta-only delivery for client "
                          << id << " without grouped aggregation");
    } else {
      ADAFL_CHECK_MSG(
          dl.msg.kind == compress::CodecKind::kTopK,
          "apply_round: client " << id << " sent a non-top-k kind");
      ADAFL_CHECK_MSG(
          dl.msg.dense_size == static_cast<std::int64_t>(d),
          "apply_round: client " << id << " update dimension mismatch");
      for (std::size_t e = 0; e < dl.msg.indices.size(); ++e) {
        ADAFL_CHECK_MSG(dl.msg.indices[e] < d,
                        "apply_round: update index out of range");
        ADAFL_CHECK_MSG(e == 0 || dl.msg.indices[e - 1] <= dl.msg.indices[e],
                        "apply_round: update indices not sorted ascending");
      }
    }
    delivered_ptrs_.push_back(&dl);
    delivered_by_id_.emplace_back(id, &dl);
    const float w = static_cast<float>(dl.num_examples);
    weight_sum += w;
    delta_norm_wsum += static_cast<double>(w) * dl.raw_delta_norm;
    out.loss_sum += dl.mean_loss;
    ++out.delivered;
    ++stats_.selected_updates;
    if (traced)
      // wire_bytes is the codec-level serialized size, which both paths
      // compute identically (the simulator from serialize(), the deployed
      // server from the received payload).
      tracer_->record(metrics::ev_update_delivered(
          plan.round, id, dl.msg.wire_bytes, dl.num_examples,
          static_cast<double>(dl.mean_loss)));
  }

  const auto dn = static_cast<std::int64_t>(d);
  if (!delivered_ptrs_.empty() && group <= 0) {
    // Classic flat association: every element accumulates the deliveries in
    // selection order.
    parallel_for_blocked(0, dn, [&](std::int64_t lo, std::int64_t hi) {
      const auto ulo = static_cast<std::uint32_t>(lo);
      const auto uhi = static_cast<std::uint32_t>(hi);
      for (const AdaFlDelivery* dlp : delivered_ptrs_) {
        const auto& idx = dlp->msg.indices;
        const auto& val = dlp->msg.values;
        const float w = static_cast<float>(dlp->num_examples);
        auto it = std::lower_bound(idx.begin(), idx.end(), ulo);
        for (std::size_t e = static_cast<std::size_t>(it - idx.begin());
             e < idx.size() && idx[e] < uhi; ++e)
          sum_delta[idx[e]] += w * val[e];
      }
    });
  } else if (!delivered_by_id_.empty()) {
    // Grouped association (agg_group > 0): per-group partials in
    // ascending-id order, merged in ascending group order. A group covered
    // by a relay's wire partial uses it verbatim (the relay ran the same
    // PartialAggregator arithmetic on the same fp32 inputs, and the kTopK
    // wire codec is lossless, so the bytes match a local recomputation);
    // every other group is computed here — which is also the flat-run path,
    // making tiered and flat runs bitwise identical by construction.
    std::sort(delivered_by_id_.begin(), delivered_by_id_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (group_partials_.size() < delivered_by_id_.size())
      group_partials_.resize(delivered_by_id_.size());
    group_ptrs_.clear();
    std::size_t computed = 0;
    for (std::size_t e = 0; e < delivered_by_id_.size();) {
      const int base = (delivered_by_id_[e].first / group) * group;
      const std::size_t begin = e;
      while (e < delivered_by_id_.size() &&
             delivered_by_id_[e].first < base + group)
        ++e;
      const compress::EncodedGradient* wp =
          wire_partial == nullptr ? nullptr : wire_partial(base);
      if (wp != nullptr) {
        ADAFL_CHECK_MSG(wp->kind == compress::CodecKind::kTopK,
                        "apply_round: wire partial for group "
                            << base << " is not top-k");
        ADAFL_CHECK_MSG(
            wp->dense_size == static_cast<std::int64_t>(d) &&
                wp->indices.size() == wp->values.size(),
            "apply_round: wire partial for group " << base << " malformed");
        for (std::size_t j = 0; j < wp->indices.size(); ++j) {
          ADAFL_CHECK_MSG(wp->indices[j] < d,
                          "apply_round: wire partial index out of range");
          ADAFL_CHECK_MSG(j == 0 || wp->indices[j - 1] < wp->indices[j],
                          "apply_round: wire partial indices not strictly "
                          "ascending");
        }
        for (std::size_t j = begin; j < e; ++j)
          ADAFL_CHECK_MSG(delivered_by_id_[j].second->meta_only,
                          "apply_round: client "
                              << delivered_by_id_[j].first
                              << " delivered a full update inside a "
                                 "wire-partial group");
        group_ptrs_.push_back(wp);
      } else {
        partial_agg_.reset(d);
        for (std::size_t j = begin; j < e; ++j) {
          const AdaFlDelivery& dl = *delivered_by_id_[j].second;
          ADAFL_CHECK_MSG(!dl.meta_only,
                          "apply_round: meta-only delivery for client "
                              << delivered_by_id_[j].first
                              << " but no wire partial for its group");
          partial_agg_.add(dl.msg, static_cast<float>(dl.num_examples));
        }
        partial_agg_.finish(group_partials_[computed]);
        group_ptrs_.push_back(&group_partials_[computed]);
        ++computed;
      }
    }
    // Element-sharded merge of the group partials — same deterministic
    // shard-order reduction as the flat loop, with partials (already
    // weighted) in place of deliveries.
    parallel_for_blocked(0, dn, [&](std::int64_t lo, std::int64_t hi) {
      const auto ulo = static_cast<std::uint32_t>(lo);
      const auto uhi = static_cast<std::uint32_t>(hi);
      for (const compress::EncodedGradient* gp : group_ptrs_) {
        const auto& idx = gp->indices;
        const auto& val = gp->values;
        auto it = std::lower_bound(idx.begin(), idx.end(), ulo);
        for (std::size_t j = static_cast<std::size_t>(it - idx.begin());
             j < idx.size() && idx[j] < uhi; ++j)
          sum_delta[idx[j]] += val[j];
      }
    });
  }

  if (weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / weight_sum);
    parallel_for_blocked(0, dn, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i)
        sum_delta[static_cast<std::size_t>(i)] *= inv;
    });
    if (params_.server_trust_clip) {
      const double cap = delta_norm_wsum / weight_sum;
      const double norm2 = tensor::l2_norm(sum_delta);
      if (norm2 > cap && norm2 > 0.0) {
        const float s = static_cast<float>(cap / norm2);
        parallel_for_blocked(0, dn, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i)
            sum_delta[static_cast<std::size_t>(i)] *= s;
        });
      }
    }
    parallel_for_blocked(0, dn, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i)
        global_[static_cast<std::size_t>(i)] -=
            sum_delta[static_cast<std::size_t>(i)];
    });
    g_hat_ = sum_delta;  // similarity reference for the next round's scores
    out.applied = true;
  }
  return out;
}

}  // namespace adafl::core
