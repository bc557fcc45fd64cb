#include "eval/plan.h"

#include <algorithm>
#include <map>
#include <utility>

#include "ctp/algorithm.h"
#include "eval/engine.h"
#include "storage/bgp_eval.h"
#include "util/string_util.h"

namespace eql {

namespace {

constexpr double kEstCap = 1e15;  // keeps products finite and printable

double Capped(double v) { return std::min(v, kEstCap); }

/// First '=' condition on `property` with a literal constant, else nullptr.
const std::string* EqLiteral(const Predicate& p, const char* property) {
  for (const Condition& c : p.conditions) {
    if (c.op == CompareOp::kEq && c.property == property && !c.is_param) {
      return &c.constant;
    }
  }
  return nullptr;
}

/// Geometric frontier series: sum_{d=1..depth} min(b^d, E) — the edges a
/// search is expected to visit expanding `depth` levels at branching factor
/// `b` before the frontier saturates the graph.
double ExpansionSeries(double b, uint64_t num_edges, uint32_t depth) {
  const double cap = static_cast<double>(num_edges);
  double sum = 0, frontier = 1;
  for (uint32_t d = 0; d < depth; ++d) {
    frontier = std::min(frontier * b, cap);
    sum += frontier;
    if (frontier >= cap) {  // saturated: every further level costs E
      sum += cap * static_cast<double>(depth - d - 1);
      break;
    }
  }
  return Capped(sum);
}

/// Fraction of nodes matching a label-equality literal (endpoint
/// selectivity), 1.0 when unconstrained.
double EndpointSelectivity(const Graph& g, const Predicate& p) {
  const std::string* lbl = EqLiteral(p, "label");
  if (lbl == nullptr || g.NumNodes() == 0) return 1.0;
  StrId id = g.dict().Lookup(*lbl);
  const double cnt = id == kNoStrId ? 0.0 : static_cast<double>(g.NodesWithLabel(id).size());
  return cnt / static_cast<double>(g.NumNodes());
}

void EstimateBgpStage(const Query& q, const Graph& g, const GraphStats& stats,
                      const std::vector<size_t>& group, PlanStage* stage) {
  double rows = 1;
  for (size_t pi : group) {
    const EdgePattern& ep = q.patterns[pi];
    const std::string* lbl = EqLiteral(ep.edge, "label");
    double scan = static_cast<double>(stats.num_edges());
    if (lbl != nullptr) {
      StrId id = g.dict().Lookup(*lbl);
      scan = id == kNoStrId ? 0.0 : static_cast<double>(stats.EdgeCountForLabel(id));
    }
    stage->est_cost = Capped(stage->est_cost + scan);
    rows = Capped(rows * scan * EndpointSelectivity(g, ep.source) *
                  EndpointSelectivity(g, ep.target));
  }
  // Fractional selectivities can push a live scan below one row; only a
  // provably-dead scan (an unknown label) estimates zero.
  if (rows > 0 && rows < 1) rows = 1;
  stage->est_rows = rows;
}

void EstimateCtpStage(const CtpPattern& ctp, const Graph& g,
                      const GraphStats& stats,
                      const std::vector<CtpMemberSource>& sources,
                      const std::vector<PlanStage>& stages, size_t num_bgps,
                      PlanStage* stage) {
  const double n = static_cast<double>(stats.num_nodes());
  double total_seeds = 0, rows = 1;
  bool any_universal = false;
  for (size_t k = 0; k < ctp.members.size(); ++k) {
    const Predicate& m = ctp.members[k];
    double est = n;
    switch (sources[k].kind) {
      case CtpMemberSource::Kind::kPredicate:
        est = static_cast<double>(EstimateSeedCount(g, m));
        break;
      case CtpMemberSource::Kind::kUniversal:
        any_universal = true;
        break;
      case CtpMemberSource::Kind::kBgpTable:
        est = std::min(stages[sources[k].source].est_rows, n);
        break;
      case CtpMemberSource::Kind::kCtpTable:
        est = std::min(stages[num_bgps + sources[k].source].est_rows, n);
        break;
    }
    // A table-bound member with its own predicate narrows further; charge
    // the tighter of the two.
    if (!m.IsEmpty() && sources[k].kind != CtpMemberSource::Kind::kPredicate) {
      est = std::min(est, static_cast<double>(EstimateSeedCount(g, m)));
    }
    stage->member_est.push_back(est);
    if (sources[k].kind != CtpMemberSource::Kind::kUniversal) total_seeds += est;
    rows = Capped(rows * std::max(est, 1.0));
  }
  // Branching factor: average incident degree thinned by the LABEL filter
  // (literal labels only; `$`-param labels are unknown at plan time and
  // conservatively not credited).
  double fraction = 1.0;
  if (ctp.filters.labels && ctp.filters.label_params.empty()) {
    std::vector<StrId> ids;
    for (const std::string& l : *ctp.filters.labels) {
      StrId id = g.dict().Lookup(l);
      if (id != kNoStrId) ids.push_back(id);
    }
    fraction = stats.LabelFraction(std::optional<std::vector<StrId>>(std::move(ids)));
  }
  const uint32_t depth =
      ctp.filters.max_edges ? std::min(*ctp.filters.max_edges, 8u) : 4u;
  stage->est_cost = Capped(
      total_seeds * ExpansionSeries(stats.AvgDegree() * fraction,
                                    stats.num_edges(), depth) +
      (any_universal ? static_cast<double>(stats.num_edges()) : 0.0) + 1.0);
  if (ctp.filters.limit) rows = std::min(rows, static_cast<double>(*ctp.filters.limit));
  stage->est_rows = rows;
}

std::string Est(double v) { return StrFormat("~%.0f", v); }

}  // namespace

Result<PhysicalPlan> BuildPhysicalPlan(const Query& q, const Graph& g,
                                       const GraphStats& stats) {
  PhysicalPlan plan;
  plan.bgp_groups = GroupIntoBgpIndices(q.patterns);
  plan.num_bgps = plan.bgp_groups.size();
  auto binding = AnalyzeCtpBindings(q, plan.bgp_groups);
  if (!binding.ok()) return binding.status();
  plan.binding = std::move(binding).value();

  for (size_t gi = 0; gi < plan.bgp_groups.size(); ++gi) {
    PlanStage stage;
    stage.kind = PlanStage::Kind::kBgp;
    stage.input = gi;
    EstimateBgpStage(q, g, stats, plan.bgp_groups[gi], &stage);
    plan.stages.push_back(std::move(stage));
  }
  std::map<std::string, size_t> first_by_key;
  for (size_t i = 0; i < q.ctps.size(); ++i) {
    PlanStage stage;
    stage.kind = PlanStage::Kind::kCtp;
    stage.input = i;
    const std::vector<CtpMemberSource>& sources = plan.binding.member_sources[i];
    for (const CtpMemberSource& s : sources) {
      if (s.kind == CtpMemberSource::Kind::kBgpTable) {
        stage.deps.push_back(s.source);
      } else if (s.kind == CtpMemberSource::Kind::kCtpTable) {
        stage.deps.push_back(plan.CtpStageId(s.source));
      }
    }
    std::sort(stage.deps.begin(), stage.deps.end());
    stage.deps.erase(std::unique(stage.deps.begin(), stage.deps.end()),
                     stage.deps.end());
    EstimateCtpStage(q.ctps[i], g, stats, sources, plan.stages, plan.num_bgps,
                     &stage);

    // CSE: self-grounded (predicate/universal members only — table-bound
    // seeds depend on runtime state) and TIMEOUT-free (a timeout's
    // truncation point is wall-clock-dependent, so two runs are not
    // interchangeable). LIMIT/MAX/TOP truncate deterministically and stay
    // eligible.
    bool self_grounded = true;
    for (const CtpMemberSource& s : sources) {
      self_grounded &= s.kind == CtpMemberSource::Kind::kPredicate ||
                       s.kind == CtpMemberSource::Kind::kUniversal;
    }
    if (self_grounded && !q.ctps[i].filters.timeout_ms &&
        !q.ctps[i].filters.timeout_param) {
      stage.cse_key = CtpTableKey(q.ctps[i]);
      const size_t sid = plan.CtpStageId(i);
      auto [it, inserted] = first_by_key.emplace(stage.cse_key, sid);
      if (!inserted) {
        stage.share_of = it->second;
        stage.deps.push_back(it->second);
        stage.est_cost = 1;  // a row/tree copy, not a search
        plan.stages[it->second].shared_by_later = true;
      }
    }
    plan.stages.push_back(std::move(stage));
  }

  // Planner order: repeatedly run the cheapest ready CTP stage (all deps
  // satisfied; BGP stages are always evaluated first, in step A). The
  // (est_cost, stage id) key makes the order total and deterministic.
  std::vector<char> done(plan.stages.size(), 0);
  for (size_t s = 0; s < plan.num_bgps; ++s) done[s] = 1;
  for (size_t picked = 0; picked < q.ctps.size(); ++picked) {
    size_t best = SIZE_MAX;
    for (size_t s = plan.num_bgps; s < plan.stages.size(); ++s) {
      if (done[s]) continue;
      bool ready = true;
      for (size_t d : plan.stages[s].deps) ready &= done[d] != 0;
      if (!ready) continue;
      if (best == SIZE_MAX ||
          plan.stages[s].est_cost < plan.stages[best].est_cost) {
        best = s;
      }
    }
    // Deps only point backwards (earlier query indexes), so a ready stage
    // always exists.
    plan.ctp_exec_order.push_back(best);
    done[best] = 1;
  }
  plan.ctp_exec_order_streaming = plan.ctp_exec_order;
  if (!q.ctps.empty()) {
    const size_t last = plan.CtpStageId(q.ctps.size() - 1);
    auto& order = plan.ctp_exec_order_streaming;
    order.erase(std::remove(order.begin(), order.end(), last), order.end());
    order.push_back(last);  // nothing depends on the final CTP: still topological
  }
  return plan;
}

std::string RenderExplain(const PhysicalPlan& plan, const Query& q,
                          const Graph& g, const QueryResult* actuals) {
  std::string out = StrFormat(
      "plan: cost-unit=edge-visits  graph: %zu nodes, %zu edges\n",
      g.NumNodes(), g.NumEdges());
  out += "  project [";
  for (size_t i = 0; i < q.head.size(); ++i) {
    out += (i > 0 ? " ?" : "?") + q.head[i];
  }
  out += "]\n  join (stage-id order)\n";
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    const PlanStage& st = plan.stages[s];
    if (st.kind == PlanStage::Kind::kBgp) {
      out += StrFormat("    s%zu bgp#%zu  patterns=%zu  est_rows%s  est_cost%s\n",
                       s, st.input, plan.bgp_groups[st.input].size(),
                       Est(st.est_rows).c_str(), Est(st.est_cost).c_str());
      if (actuals != nullptr && st.input < actuals->bgp_rows.size()) {
        out += StrFormat("       actual: rows=%llu\n",
                         (unsigned long long)actuals->bgp_rows[st.input]);
      }
      continue;
    }
    const CtpPattern& ctp = q.ctps[st.input];
    out += StrFormat("    s%zu ctp ?%s", s, ctp.tree_var.c_str());
    if (st.share_of != SIZE_MAX) {
      out += StrFormat("  = s%zu (shared table spec)  est_cost~1\n", st.share_of);
    } else {
      out += "  seeds[";
      for (size_t k = 0; k < ctp.members.size(); ++k) {
        const CtpMemberSource& src = plan.binding.member_sources[st.input][k];
        if (k > 0) out += ", ";
        out += "?" + ctp.members[k].var;
        switch (src.kind) {
          case CtpMemberSource::Kind::kBgpTable:
            out += StrFormat("<-s%zu", src.source);
            break;
          case CtpMemberSource::Kind::kCtpTable:
            out += StrFormat("<-s%zu", plan.CtpStageId(src.source));
            break;
          case CtpMemberSource::Kind::kPredicate:
            out += ":pred";
            break;
          case CtpMemberSource::Kind::kUniversal:
            out += ":N";
            break;
        }
        if (src.kind != CtpMemberSource::Kind::kUniversal) {
          out += Est(st.member_est[k]);
        }
      }
      out += StrFormat("]  est_rows%s  est_cost%s", Est(st.est_rows).c_str(),
                       Est(st.est_cost).c_str());
      if (!st.deps.empty()) {
        out += "  deps[";
        for (size_t d = 0; d < st.deps.size(); ++d) {
          out += StrFormat(d > 0 ? " s%zu" : "s%zu", st.deps[d]);
        }
        out += "]";
      }
      out += "\n";
    }
    if (actuals != nullptr && st.input < actuals->ctp_runs.size()) {
      const CtpRunInfo& run = actuals->ctp_runs[st.input];
      out += "       actual: ";
      if (run.skipped) {
        out += "skipped (an upstream table is empty; no row can survive the join)\n";
      } else {
        out += StrFormat("rows=%zu  algo=%s  view=%s  outcome=%s", run.num_results,
                         AlgorithmName(run.algorithm), run.used_view ? "yes" : "no",
                         SearchOutcomeName(run.stats.Outcome()));
        if (run.shared) out += "  shared";
        if (run.dead_labels) out += "  dead-labels";
        if (run.streamed_rows) out += "  streamed";
        out += "\n";
      }
    }
  }
  if (!plan.ctp_exec_order.empty()) {
    out += "  ctp exec order: ";
    const std::vector<size_t>& order = plan.ctp_exec_order;
    for (size_t i = 0; i < order.size(); ++i) {
      out += StrFormat(i > 0 ? " -> s%zu" : "s%zu", order[i]);
    }
    out += "\n";
  }
  return out;
}

}  // namespace eql
