#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>

#include "src/datagen/datagen.h"
#include "src/engine/eval.h"
#include "src/measure/measure.h"
#include "src/model/database.h"
#include "src/obs/trace.h"
#include "src/service/ranking_service.h"
#include "src/service/ranking_session.h"
#include "src/service/request_key.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace mudb::bench {

namespace {

using engine::EvalResult;
using measure::MeasureOptions;
using measure::MeasureResult;
using service::MeasureRequest;

constexpr int kServiceThreads = 2;

// Independent streams carved out of the workload seed. Template t of a
// workload draws its constants from stream kConstantStream + t.
enum Stream : uint64_t {
  kMeasureStream = 1,
  kOpStream,
  kConstantStream,
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  util::FingerprintHasher h(0x6d7564622d62656eull);  // "mudb-ben"
  h.Absorb(seed);
  h.Absorb(stream);
  return h.Digest().lo;
}

// The randomness of op `index`, independent of every other op's.
util::Rng OpRng(uint64_t seed, int64_t index) {
  return util::Rng(SubSeed(seed, kOpStream)).Split(static_cast<uint64_t>(index));
}

// Point k of a golden-ratio sequence in [0, 1) with a seeded offset. Every
// prefix of it covers [0, 1) evenly, so the mix of constants (and of Zipf
// ranks) a run sees is the same whatever the seed; independent draws would
// move latency percentiles from seed to seed by more than the bounds.
double Stratified(uint64_t seed, uint64_t stream, int64_t k) {
  const double x = util::Rng(SubSeed(seed, stream)).Uniform01() +
                   static_cast<double>(k) * 0.6180339887498949;
  return x - std::floor(x);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

bool SameResult(const MeasureResult& a, const MeasureResult& b) {
  return Bits(a.value) == Bits(b.value) && Bits(a.ci_lo) == Bits(b.ci_lo) &&
         Bits(a.ci_hi) == Bits(b.ci_hi) && a.is_exact == b.is_exact &&
         a.samples == b.samples;
}

void AbsorbResult(util::FingerprintHasher* h, const MeasureResult& r) {
  h->AbsorbDouble(r.value);
  h->AbsorbDouble(r.ci_lo);
  h->AbsorbDouble(r.ci_hi);
  h->Absorb(r.is_exact ? 1 : 0);
  h->Absorb(static_cast<uint64_t>(r.tier));
}

// Checks the invariants every measure result must satisfy; appends a gate
// failure naming `what` otherwise.
void CheckInterval(const MeasureResult& r, const std::string& what,
                   std::vector<std::string>* failures) {
  if (!(r.value >= 0.0 && r.value <= 1.0 && r.ci_lo <= r.value &&
        r.value <= r.ci_hi)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ": value %.17g outside [0,1] or its interval [%.17g, %.17g]",
                  r.value, r.ci_lo, r.ci_hi);
    failures->push_back(what + buf);
  }
}

// The databases keep datagen's fixed default seed: every run measures the
// same data, and the workload seed varies the op stream over it. Cost per op
// depends strongly on which answers fall in the LIMIT window, so a seeded
// database would make runs with different seeds incomparable.
datagen::SalesConfig Sales(int64_t products, int64_t orders, int64_t segments,
                           double null_rate) {
  datagen::SalesConfig config;
  config.num_products = products;
  config.num_orders = orders;
  config.num_segments = segments;
  config.null_rate = null_rate;
  return config;
}

util::StatusOr<model::Database> Generate(const datagen::SalesConfig& config,
                                         double* seconds) {
  util::WallTimer timer;
  util::StatusOr<model::Database> db = datagen::MakeSalesDatabase(config);
  *seconds = timer.ElapsedSeconds();
  return db;
}

// SQL text -> candidate answers, with the bench's spans around both calls.
util::StatusOr<EvalResult> ParseAndEval(const std::string& sql,
                                        const model::Database& db,
                                        OpCounts* counts) {
  util::StatusOr<engine::ConjunctiveQuery> cq = [&] {
    obs::Span span("bench.sql.parse");
    return sql::ParseSqlQuery(sql, db);
  }();
  if (!cq.ok()) return cq.status();
  util::StatusOr<EvalResult> eval = [&] {
    obs::Span span("bench.engine.eval");
    return engine::EvaluateCq(db, *cq);
  }();
  if (!eval.ok()) return eval.status();
  counts->witnesses += static_cast<int64_t>(eval->witnesses_enumerated);
  for (const engine::Candidate& c : eval->candidates) {
    ++counts->candidates;
    counts->candidate_witnesses += static_cast<int64_t>(c.witnesses);
    if (!c.certain) ++counts->uncertain;
  }
  return eval;
}

void AddBatchStats(const service::BatchStats& s, OpCounts* counts) {
  counts->requests += s.requests;
  counts->request_hits += s.request_cache_hits;
  counts->bodies += s.bodies;
  counts->unique_bodies += s.unique_bodies;
  counts->body_hits += s.body_cache_hits;
  counts->steps += s.sampling_steps;
  counts->samples += s.samples;
}

std::vector<MeasureRequest> NuRequests(const EvalResult& eval,
                                       const MeasureOptions& options) {
  std::vector<MeasureRequest> requests;
  requests.reserve(eval.candidates.size());
  for (const engine::Candidate& c : eval.candidates) {
    requests.push_back(MeasureRequest::Nu(c.constraint, options));
  }
  return requests;
}

// ---- The Fig. 1 queries ---------------------------------------------------
//
// The three decision-support queries of the paper's §9, as reconstructed in
// EXPERIMENTS.md. Each carries one constant the workloads scale per op.

struct Fig1Template {
  const char* format;  // one %.6f: the scaled constant
  double base;         // the constant as the paper states it
};

constexpr Fig1Template kFig1[3] = {
    // (a) Competitive Advantage.
    {"SELECT P.seg FROM Products P, Market M WHERE P.seg = M.seg AND "
     "P.rrp * P.dis <= %.6f * M.rrp * M.dis LIMIT 25",
     1.0},
    // (b) Never Knowingly Undersold.
    {"SELECT P.id FROM Products P, Orders O, Market M WHERE P.seg = M.seg "
     "AND P.id = O.pr AND P.rrp * P.dis * O.q <= %.6f * M.rrp * M.dis * "
     "O.dis LIMIT 25",
     0.5},
    // (c) Unfair Discount.
    {"SELECT O.id FROM Products P, Orders O WHERE P.id = O.pr AND "
     "O.dis >= %.6f * P.dis * O.q LIMIT 25",
     1.6},
};

std::string Fig1Sql(int t, double factor) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), kFig1[t].format, kFig1[t].base * factor);
  return buf;
}

// One Fig. 1 query's answers: the candidates and their measures.
struct Fig1Answer {
  EvalResult eval;
  std::vector<MeasureResult> results;
  double run_batch_ms = 0.0;
};

// Runs one Fig. 1 query from SQL text through the service.
util::StatusOr<Fig1Answer> RunFig1Query(service::MeasureService* svc,
                                        const model::Database& db,
                                        const std::string& sql,
                                        const MeasureOptions& options,
                                        OpCounts* counts) {
  Fig1Answer answer;
  MUDB_ASSIGN_OR_RETURN(answer.eval, ParseAndEval(sql, db, counts));
  service::MeasureService::BatchOutcome batch = [&] {
    obs::Span span("bench.service.run_batch");
    return svc->RunBatch(NuRequests(answer.eval, options));
  }();
  AddBatchStats(batch.stats, counts);
  answer.run_batch_ms = batch.stats.wall_ms;
  for (util::StatusOr<MeasureResult>& r : batch.results) {
    if (!r.ok()) return r.status();
    ++counts->results;
    if (r->is_exact) ++counts->exact_results;
    answer.results.push_back(std::move(r).value());
  }
  return answer;
}

MeasureOptions AfprasOptions(double epsilon, uint64_t seed) {
  MeasureOptions options;
  options.method = measure::Method::kAfpras;
  options.epsilon = epsilon;
  options.delta = 0.25;  // the paper's 3/4-confidence setting
  options.seed = SubSeed(seed, kMeasureStream);
  return options;
}

void CheckFig1Answer(const Fig1Answer& a, const std::string& what,
                     std::vector<std::string>* failures) {
  for (size_t k = 0; k < a.results.size(); ++k) {
    const std::string who = what + " candidate " + std::to_string(k);
    CheckInterval(a.results[k], who, failures);
    if (a.eval.candidates[k].certain &&
        !(a.results[k].value == 1.0 && a.results[k].is_exact)) {
      failures->push_back(who + ": certain candidate does not measure 1");
    }
  }
}

util::Fingerprint128 DigestOf(const std::vector<MeasureResult>& results) {
  util::FingerprintHasher h(results.size());
  for (const MeasureResult& r : results) AbsorbResult(&h, r);
  return h.Digest();
}

// Least-squares slope of log y over log x; NaN when x takes < 2 values.
double LogLogSlope(const std::vector<std::pair<double, double>>& points) {
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : points) {
    const double lx = std::log(x), ly = std::log(y);
    n += 1;
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double var = n * sxx - sx * sx;
  if (n < 2 || var <= 1e-12 * n * n) return std::nan("");
  return (n * sxy - sx * sy) / var;
}

// ---- fig1_paper -------------------------------------------------------------

// The paper's ε axis: 0.100 down to 0.010 in steps of 0.005.
constexpr int kEpsGrid = 19;
double GridEpsilon(int j) { return (100 - 5 * j) / 1000.0; }
// The order the ops walk the grid in: the coarsest and the finest ε first,
// then ever finer subdivisions, so every prefix of a run spans the curve.
constexpr int kEpsOrder[kEpsGrid] = {0,  18, 9, 14, 4,  16, 2,  11, 6, 17,
                                     1,  13, 7, 15, 3,  10, 5,  12, 8};
constexpr int kFineGrid = 14;  // grid index of ε = 0.03

class Fig1Paper : public Workload {
 public:
  explicit Fig1Paper(const WorkloadConfig& config) : config_(config) {}

  util::Status Setup() override {
    datagen::SalesConfig sales =
        config_.smoke ? Sales(2000, 1200, 50, 0.08)
                      : Sales(100000, 60000, 500, 0.08);
    MUDB_ASSIGN_OR_RETURN(db_, Generate(sales, &datagen_seconds_));
    MakeService();
    // Warm-up: the cheapest template at its published constant.
    OpCounts ignored;
    return RunFig1Query(service_.get(), *db_, Fig1Sql(2, 1.0),
                        AfprasOptions(GridEpsilon(0), config_.seed), &ignored)
        .status();
  }

  // Op i: template i mod 3 at grid ε kEpsOrder[(i / 3) mod 19], its constant
  // scaled by a seeded factor in [0.8, 1.2], so no two ops share formula
  // content and none hits the request memo.
  OpOutcome RunOp(int64_t index) override {
    const int t = static_cast<int>(index % 3);
    const int j = kEpsOrder[(index / 3) % kEpsGrid];
    const double factor =
        0.8 + 0.4 * Stratified(config_.seed, kConstantStream + t, index / 3);
    const MeasureOptions options = AfprasOptions(GridEpsilon(j), config_.seed);
    OpOutcome out;
    util::StatusOr<Fig1Answer> answer = RunFig1Query(
        service_.get(), *db_, Fig1Sql(t, factor), options, &out.counts);
    if (!answer.ok()) {
      out.status = answer.status();
      return out;
    }
    CheckFig1Answer(*answer, "op " + std::to_string(index), &gate_failures_);
    out.digest = DigestOf(answer->results);
    int64_t sampled = 0, samples = 0;
    for (const MeasureResult& r : answer->results) {
      if (r.samples > 0) {
        ++sampled;
        samples += r.samples;
      }
    }
    if (sampled > 0) {
      points_.push_back({j, static_cast<double>(samples) / sampled,
                         answer->run_batch_ms});
    }
    if (index < 3) {
      firsts_.push_back({options, std::move(answer).value()});
    }
    return out;
  }

  void Verify(std::vector<std::string>* failures) override {
    failures->insert(failures->end(), gate_failures_.begin(),
                     gate_failures_.end());
    // The service path is bit-identical to direct ComputeNu.
    for (size_t t = 0; t < firsts_.size(); ++t) {
      const auto& [options, answer] = firsts_[t];
      for (size_t k = 0; k < answer.results.size(); ++k) {
        util::StatusOr<MeasureResult> direct = measure::ComputeNu(
            answer.eval.candidates[k].constraint, options);
        if (!direct.ok() || !SameResult(*direct, answer.results[k])) {
          failures->push_back("fig1 template " + std::to_string(t) +
                              " candidate " + std::to_string(k) +
                              ": service result differs from ComputeNu");
        }
      }
    }
    // Fig. 1 reproduction: AFPRAS samples scale as ε^-2, and a query at
    // ε = 0.01 takes seconds, not minutes.
    const double slope = SamplesSlope();
    if (!std::isnan(slope) && !(slope >= -2.05 && slope <= -1.95)) {
      failures->push_back("fig1: samples-vs-ε log-log slope " +
                          std::to_string(slope) + " outside [-2.05, -1.95]");
    }
    const double ms = MsAtFinestEps();
    if (ms >= 10000.0) {
      failures->push_back("fig1: measure time at ε = 0.01 is " +
                          std::to_string(ms) + " ms, not under 10 s");
    }
  }

  std::vector<std::pair<std::string, double>> Extras() const override {
    std::vector<std::pair<double, double>> fine;
    for (const Point& p : points_) {
      if (p.grid >= kFineGrid) fine.push_back({GridEpsilon(p.grid), p.ms});
    }
    return {{"measure.samples_slope", SamplesSlope()},
            {"measure.ms_at_eps_0.01", MsAtFinestEps()},
            {"measure.eps_slope", LogLogSlope(fine)}};
  }

 private:
  struct Point {
    int grid;                 // ε grid index
    double samples_per_cand;  // AFPRAS samples per sampled candidate
    double ms;                // RunBatch wall time
  };

  double SamplesSlope() const {
    std::vector<std::pair<double, double>> xy;
    for (const Point& p : points_) {
      xy.push_back({GridEpsilon(p.grid), p.samples_per_cand});
    }
    return LogLogSlope(xy);
  }

  // Mean measure time of the ops at ε = 0.01; NaN before any ran.
  double MsAtFinestEps() const {
    double sum = 0;
    int n = 0;
    for (const Point& p : points_) {
      if (p.grid == kEpsGrid - 1) {
        sum += p.ms;
        ++n;
      }
    }
    return n > 0 ? sum / n : std::nan("");
  }

  WorkloadConfig config_;
  std::optional<model::Database> db_;
  std::vector<Point> points_;
  std::vector<std::pair<MeasureOptions, Fig1Answer>> firsts_;
};

// ---- Ranking helpers ---------------------------------------------------------

constexpr int kTopK = 5;

service::RankingOptions TopkRanking(double per_estimate_delta) {
  service::RankingOptions options;
  options.k = kTopK;  // default ladder 0.2 -> 0.1 -> 0.05
  options.per_estimate_delta = per_estimate_delta;
  return options;
}

MeasureOptions FprasOptions(uint64_t seed) {
  MeasureOptions options;
  options.method = measure::Method::kFpras;
  options.epsilon = 0.05;
  options.seed = SubSeed(seed, kMeasureStream);
  return options;
}

// Template A: one join witness per product, so single-cone candidates.
std::string TemplateA(double c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT P.id FROM Products P, Market M WHERE P.seg = M.seg "
                "AND P.rrp - %.6f * P.dis <= M.rrp - M.dis LIMIT 25",
                c);
  return buf;
}

// Template B: one witness per order of a product, so a product with several
// orders is a union of cones. Products come first in FROM, so the LIMIT
// window holds products in id order, and most of them have one order.
// Listing Orders first fills it with multi-order unions instead, at about
// 1 s per op, too slow for the run budget.
std::string TemplateB(double c, int limit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT P.id FROM Products P, Orders O WHERE P.id = O.pr AND "
                "O.dis - %.6f * P.dis >= 0.5 * O.q - P.rrp LIMIT %d",
                c, limit);
  return buf;
}

void AddRerankCounts(const service::RerankOutcome& o, OpCounts* counts) {
  for (const service::BatchStats& s : o.tier_stats) AddBatchStats(s, counts);
  counts->tiers += static_cast<int64_t>(o.tier_stats.size());
  counts->evaluations += o.evaluations;
  counts->warm_hits += o.warm_hits;
  counts->invalidated += o.invalidated;
  for (const service::SessionCandidate& c : o.candidates) {
    ++counts->results;
    if (c.result.is_exact) ++counts->exact_results;
    if (c.pruned) ++counts->pruned;
  }
}

util::Fingerprint128 DigestOf(const service::RerankOutcome& o) {
  util::FingerprintHasher h(o.candidates.size());
  for (service::CandidateId id : o.top_k) h.Absorb(id);
  for (const service::SessionCandidate& c : o.candidates) {
    h.Absorb(c.id);
    AbsorbResult(&h, c.result);
    h.Absorb((c.pruned ? 1 : 0) | (c.frozen ? 2 : 0));
  }
  return h.Digest();
}

void CheckRanking(const service::RerankOutcome& o, const std::string& what,
                  std::vector<std::string>* failures) {
  for (const service::SessionCandidate& c : o.candidates) {
    CheckInterval(c.result, what + " candidate " + std::to_string(c.id),
                  failures);
  }
  if (o.top_k.size() !=
      std::min(static_cast<size_t>(kTopK), o.candidates.size())) {
    failures->push_back(what + ": top-k has the wrong size");
  }
}

// Bit-level equality of the rerank contract's fields between a session's
// outcome and a cold ranking that received the same answers in ascending
// session-id order.
bool SameRanking(const service::RerankOutcome& session,
                 const std::vector<size_t>& cold_top_k,
                 const std::vector<MeasureResult>& cold_results,
                 const std::vector<bool>& cold_pruned) {
  if (session.candidates.size() != cold_results.size() ||
      session.top_k.size() != cold_top_k.size()) {
    return false;
  }
  std::map<service::CandidateId, size_t> index_of;
  for (size_t i = 0; i < session.candidates.size(); ++i) {
    index_of[session.candidates[i].id] = i;
  }
  for (size_t r = 0; r < cold_top_k.size(); ++r) {
    if (index_of[session.top_k[r]] != cold_top_k[r]) return false;
  }
  for (size_t i = 0; i < cold_results.size(); ++i) {
    const service::SessionCandidate& c = session.candidates[i];
    if (!SameResult(c.result, cold_results[i]) ||
        c.result.tier != cold_results[i].tier ||
        c.pruned != cold_pruned[i]) {
      return false;
    }
  }
  return true;
}

// ---- topk_fpras --------------------------------------------------------------

class TopkFpras : public Workload {
 public:
  explicit TopkFpras(const WorkloadConfig& config) : config_(config) {}

  util::Status Setup() override {
    datagen::SalesConfig sales =
        config_.smoke ? Sales(500, 500, 50, 0.4)
                      : Sales(5000, 5000, 500, 0.4);
    MUDB_ASSIGN_OR_RETURN(db_, Generate(sales, &datagen_seconds_));
    MakeService();
    OpCounts ignored;
    return Rank(TemplateA(0.55), &ignored).status();
  }

  // Ops alternate A and B; the constant c is seeded in [0.3, 0.8].
  OpOutcome RunOp(int64_t index) override {
    const bool b = index % 2 == 1;
    const double c =
        0.3 + 0.5 * Stratified(config_.seed, kConstantStream + (b ? 1 : 0),
                               index / 2);
    const std::string sql = b ? TemplateB(c, kLimitB) : TemplateA(c);
    OpOutcome out;
    util::StatusOr<Ranked> ranked = Rank(sql, &out.counts);
    if (!ranked.ok()) {
      out.status = ranked.status();
      return out;
    }
    CheckRanking(ranked->outcome, "op " + std::to_string(index),
                 &gate_failures_);
    out.digest = DigestOf(ranked->outcome);
    if (index < kReferenceOps) references_.push_back(std::move(*ranked));
    return out;
  }

  // Seeded ops re-ranked by the one-shot RankTopK on a fresh one-thread
  // service must give bit-identical rankings.
  void Verify(std::vector<std::string>* failures) override {
    failures->insert(failures->end(), gate_failures_.begin(),
                     gate_failures_.end());
    for (size_t i = 0; i < references_.size(); ++i) {
      service::ServiceOptions options;
      options.num_threads = 1;
      service::MeasureService fresh(options);
      service::RankingService ranking(&fresh);
      util::StatusOr<service::RankingOutcome> cold =
          ranking.RankTopK(references_[i].requests, TopkRanking(0.0));
      bool same = cold.ok();
      if (same) {
        std::vector<MeasureResult> results;
        std::vector<bool> pruned;
        for (const service::RankedCandidate& c : cold->candidates) {
          results.push_back(c.result);
          pruned.push_back(c.pruned);
        }
        same = SameRanking(references_[i].outcome, cold->top_k, results,
                           pruned);
      }
      if (!same) {
        failures->push_back("topk op " + std::to_string(i) +
                            ": RankTopK on a fresh service disagrees");
      }
    }
  }

 private:
  static constexpr int kLimitB = 10;
  // Ops 0-2: A, B, A.
  static constexpr int64_t kReferenceOps = 3;

  struct Ranked {
    std::vector<MeasureRequest> requests;
    service::RerankOutcome outcome;
  };

  // A fresh session on the long-lived service ranks the query's answers.
  util::StatusOr<Ranked> Rank(const std::string& sql, OpCounts* counts) {
    MUDB_ASSIGN_OR_RETURN(EvalResult eval, ParseAndEval(sql, *db_, counts));
    Ranked ranked;
    ranked.requests = NuRequests(eval, FprasOptions(config_.seed));
    service::RankingSession session(service_.get(), TopkRanking(0.0));
    service::RankingDelta delta;
    delta.inserts = ranked.requests;
    util::StatusOr<service::RerankOutcome> outcome = [&] {
      obs::Span span("bench.service.rerank");
      return session.Rerank(std::move(delta));
    }();
    if (!outcome.ok()) return outcome.status();
    AddRerankCounts(*outcome, counts);
    ranked.outcome = std::move(outcome).value();
    return ranked;
  }

  WorkloadConfig config_;
  std::optional<model::Database> db_;
  std::vector<Ranked> references_;
};

// ---- refine_rerank -----------------------------------------------------------

// Value ranges of the generated numeric columns (datagen.cc).
struct ColumnRange {
  double lo, hi;
  int decimals;
};

std::optional<ColumnRange> SalesColumnRange(const std::string& relation,
                                            const std::string& column) {
  if (column == "rrp") return ColumnRange{5.0, 500.0, 2};
  if (column == "q") return ColumnRange{1.0, 20.0, 0};
  if (column == "dis") {
    return relation == "Orders" ? ColumnRange{0.5, 1.5, 2}
                                : ColumnRange{0.5, 1.0, 2};
  }
  return std::nullopt;
}

class RefineRerank : public Workload {
 public:
  explicit RefineRerank(const WorkloadConfig& config) : config_(config) {}

  // Set-up ends with the session's cold ranking of the first answer set.
  util::Status Setup() override {
    datagen::SalesConfig sales =
        config_.smoke ? Sales(500, 500, 50, 0.4)
                      : Sales(5000, 5000, 500, 0.4);
    MUDB_ASSIGN_OR_RETURN(original_, Generate(sales, &datagen_seconds_));
    db_ = *original_;
    for (const auto& [name, relation] : original_->relations()) {
      for (const model::Tuple& t : relation.tuples()) {
        for (size_t col = 0; col < t.size(); ++col) {
          if (t[col].kind() != model::Value::Kind::kNumNull) continue;
          std::optional<ColumnRange> range =
              SalesColumnRange(name, relation.schema().column(col).name);
          if (range) range_of_[t[col].null_id()] = *range;
        }
      }
    }
    sql_ = TemplateA(kConstant);
    MakeService();
    session_ = std::make_unique<service::RankingSession>(
        service_.get(), TopkRanking(kPerEstimateDelta));
    OpCounts ignored;
    return Read(&ignored).status();
  }

  // Op i: one write (a refinement), then one read (re-parse, re-evaluate,
  // diff, rerank).
  OpOutcome RunOp(int64_t index) override {
    util::Rng rng = OpRng(config_.seed, index);
    Write(rng);
    OpOutcome out;
    util::StatusOr<const service::RerankOutcome*> outcome = Read(&out.counts);
    if (!outcome.ok()) {
      out.status = outcome.status();
      return out;
    }
    CheckRanking(**outcome, "op " + std::to_string(index), &gate_failures_);
    out.digest = DigestOf(**outcome);
    return out;
  }

  // The session's final outcome is bit-identical to a cold ranking of the
  // final database's answers on a fresh one-thread service.
  void Verify(std::vector<std::string>* failures) override {
    failures->insert(failures->end(), gate_failures_.begin(),
                     gate_failures_.end());
    service::ServiceOptions options;
    options.num_threads = 1;
    service::MeasureService fresh(options);
    service::RankingSession cold(&fresh, TopkRanking(kPerEstimateDelta));
    // Inserted in ascending session id, so cold ids map monotonically onto
    // session ids and ties break the same way.
    std::map<service::CandidateId, const MeasureRequest*> by_id;
    for (const auto& [tuple, slot] : slots_) by_id[slot.id] = &slot.request;
    service::RankingDelta delta;
    for (const auto& [id, request] : by_id) delta.inserts.push_back(*request);
    util::StatusOr<service::RerankOutcome> outcome =
        cold.Rerank(std::move(delta));
    bool same = outcome.ok() && last_.has_value();
    if (same) {
      std::vector<size_t> top_k(outcome->top_k.begin(), outcome->top_k.end());
      std::vector<MeasureResult> results;
      std::vector<bool> pruned;
      for (const service::SessionCandidate& c : outcome->candidates) {
        results.push_back(c.result);
        pruned.push_back(c.pruned);
      }
      same = SameRanking(*last_, top_k, results, pruned);
    }
    if (!same) {
      failures->push_back(
          "refine_rerank: final session outcome differs from a cold ranking");
    }
  }

 private:
  static constexpr double kPerEstimateDelta = 0.002;
  // One fixed query text: the seed drives the writes, not the read.
  static constexpr double kConstant = 0.55;
  // Every kEpochWrites-th write restores the generated database, so the
  // op mix is the same over any run length: without it the LIMIT window
  // fills with certain answers and runs out of nulls to refine.
  static constexpr int kEpochWrites = 32;

  // One answer tuple as the session knows it.
  struct Slot {
    service::CandidateId id = 0;
    convex::CanonicalBodyKey key;     // request signature of its content
    std::vector<model::NullId> nulls; // numeric nulls its formula uses
    MeasureRequest request;
  };

  // Refines one numeric null of a current candidate to a constant drawn
  // from its column's range: with p = 0.5 from a top-k candidate.
  void Write(util::Rng& rng) {
    std::vector<const Slot*> top, any;
    for (const auto& [tuple, slot] : slots_) {
      if (slot.nulls.empty()) continue;
      any.push_back(&slot);
      if (std::find(last_->top_k.begin(), last_->top_k.end(), slot.id) !=
          last_->top_k.end()) {
        top.push_back(&slot);
      }
    }
    const bool from_top = rng.Bernoulli(0.5) && !top.empty();
    const std::vector<const Slot*>& pool = from_top ? top : any;
    obs::Span span("bench.model.apply");
    if (pool.empty() || ++writes_ % kEpochWrites == 0) {
      db_ = *original_;
      return;
    }
    const auto pick = [&rng](size_t n) {
      return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    };
    const std::vector<model::NullId>& nulls = pool[pick(pool.size())]->nulls;
    const model::NullId null = nulls[pick(nulls.size())];
    const ColumnRange range = range_of_.at(null);
    const double scale = std::pow(10.0, range.decimals);
    model::Valuation refine;
    refine.SetNum(null,
                  std::round(rng.Uniform(range.lo, range.hi) * scale) / scale);
    db_ = refine.Apply(*db_);
  }

  // Re-evaluates the query and sends the session the difference to the
  // previous answer set: removed tuples, inserted tuples, and tuples whose
  // grounded formula changed content.
  util::StatusOr<const service::RerankOutcome*> Read(OpCounts* counts) {
    MUDB_ASSIGN_OR_RETURN(EvalResult eval, ParseAndEval(sql_, *db_, counts));
    const MeasureOptions options = FprasOptions(config_.seed);
    std::map<model::Tuple, Slot> next;
    std::vector<const model::Tuple*> inserted;
    service::RankingDelta delta;
    for (const engine::Candidate& c : eval.candidates) {
      Slot slot;
      slot.key = service::RequestSignature(c.constraint, options);
      for (int z : c.constraint.UsedVariables()) {
        slot.nulls.push_back(eval.null_order[z]);
      }
      slot.request = MeasureRequest::Nu(c.constraint, options);
      auto it = slots_.find(c.output);
      if (it == slots_.end()) {
        inserted.push_back(&c.output);
        delta.inserts.push_back(slot.request);
      } else {
        slot.id = it->second.id;
        if (slot.key != it->second.key) {
          delta.updates.emplace_back(slot.id, slot.request);
        }
      }
      next.emplace(c.output, std::move(slot));
    }
    for (const auto& [tuple, slot] : slots_) {
      if (next.count(tuple) == 0) delta.removals.push_back(slot.id);
    }
    util::StatusOr<service::RerankOutcome> outcome = [&] {
      obs::Span span("bench.service.rerank");
      return session_->Rerank(std::move(delta));
    }();
    if (!outcome.ok()) return outcome.status();
    for (size_t j = 0; j < inserted.size(); ++j) {
      next.at(*inserted[j]).id = outcome->inserted_ids[j];
    }
    slots_ = std::move(next);
    AddRerankCounts(*outcome, counts);
    last_ = std::move(outcome).value();
    return &*last_;
  }

  WorkloadConfig config_;
  std::optional<model::Database> original_;
  std::optional<model::Database> db_;
  std::map<model::NullId, ColumnRange> range_of_;
  std::string sql_;
  std::unique_ptr<service::RankingSession> session_;
  int64_t writes_ = 0;
  // The session's view of the current answer set, by output tuple.
  std::map<model::Tuple, Slot> slots_;
  std::optional<service::RerankOutcome> last_;
};

// ---- repeat_dashboard --------------------------------------------------------

constexpr int kDashboardTexts = 12;
constexpr double kDashboardFactors[4] = {0.85, 0.95, 1.05, 1.15};
constexpr double kZipfS = 1.1;

class RepeatDashboard : public Workload {
 public:
  explicit RepeatDashboard(const WorkloadConfig& config) : config_(config) {}

  // Set-up ends with every text run once, so each timed measurement is a
  // request-memo hit.
  util::Status Setup() override {
    datagen::SalesConfig sales =
        config_.smoke ? Sales(1000, 600, 40, 0.08)
                      : Sales(40000, 24000, 400, 0.08);
    MUDB_ASSIGN_OR_RETURN(db_, Generate(sales, &datagen_seconds_));
    MakeService();
    double total = 0;
    for (int r = 0; r < kDashboardTexts; ++r) {
      // Popularity rank r: template r mod 3, constant r / 3.
      texts_.push_back(Fig1Sql(r % 3, kDashboardFactors[r / 3]));
      total += 1.0 / std::pow(r + 1, kZipfS);
      cdf_.push_back(total);
      OpCounts ignored;
      MUDB_ASSIGN_OR_RETURN(
          Fig1Answer answer,
          RunFig1Query(service_.get(), *db_, texts_.back(), Options(),
                       &ignored));
      first_.push_back(std::move(answer.results));
    }
    for (double& c : cdf_) c /= total;
    return util::Status::OK();
  }

  // Op i draws its text from Zipf(1.1) over the 12 texts.
  OpOutcome RunOp(int64_t index) override {
    const double u = Stratified(config_.seed, kConstantStream, index);
    const int r = static_cast<int>(
        std::min<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                             cdf_.begin(),
                         kDashboardTexts - 1));
    OpOutcome out;
    util::StatusOr<Fig1Answer> answer = RunFig1Query(
        service_.get(), *db_, texts_[r], Options(), &out.counts);
    if (!answer.ok()) {
      out.status = answer.status();
      return out;
    }
    const std::string what = "op " + std::to_string(index);
    CheckFig1Answer(*answer, what, &gate_failures_);
    bool same = answer->results.size() == first_[r].size();
    for (size_t k = 0; same && k < first_[r].size(); ++k) {
      same = SameResult(answer->results[k], first_[r][k]);
    }
    if (!same) {
      gate_failures_.push_back(what + ": repeat of text " + std::to_string(r) +
                               " differs from its first run");
    }
    out.digest = DigestOf(answer->results);
    return out;
  }

  void Verify(std::vector<std::string>* failures) override {
    failures->insert(failures->end(), gate_failures_.begin(),
                     gate_failures_.end());
  }

 private:
  MeasureOptions Options() const { return AfprasOptions(0.01, config_.seed); }

  WorkloadConfig config_;
  std::optional<model::Database> db_;
  std::vector<std::string> texts_;
  std::vector<double> cdf_;
  std::vector<std::vector<MeasureResult>> first_;
};

}  // namespace

void OpCounts::Add(const OpCounts& o) {
  witnesses += o.witnesses;
  candidates += o.candidates;
  candidate_witnesses += o.candidate_witnesses;
  uncertain += o.uncertain;
  results += o.results;
  exact_results += o.exact_results;
  samples += o.samples;
  requests += o.requests;
  request_hits += o.request_hits;
  bodies += o.bodies;
  unique_bodies += o.unique_bodies;
  body_hits += o.body_hits;
  steps += o.steps;
  tiers += o.tiers;
  evaluations += o.evaluations;
  warm_hits += o.warm_hits;
  pruned += o.pruned;
  invalidated += o.invalidated;
}

void Workload::MakeService() {
  service::ServiceOptions options;
  options.num_threads = kServiceThreads;
  service_ = std::make_unique<service::MeasureService>(options);
}

// Block sizes and their nominal times on a 4-vCPU 2.1 GHz Xeon VM.
const std::vector<WorkloadSpec>& WorkloadSpecs() {
  static const std::vector<WorkloadSpec> specs = {
      // The 3 queries at each of the 19 ε values.
      {"fig1_paper", 3 * kEpsGrid, 22.0},
      // 25 rounds of an A op and a B op.
      {"topk_fpras", 50, 7.5},
      // 2 epochs of 32 writes.
      {"refine_rerank", 64, 3.0},
      {"repeat_dashboard", 50, 6.5},
  };
  return specs;
}

int64_t PassOps(const WorkloadSpec& spec, double seconds, int64_t min_ops) {
  const int64_t fill =
      static_cast<int64_t>(std::round(seconds / spec.block_seconds));
  const int64_t least = (min_ops + spec.block_ops - 1) / spec.block_ops;
  return spec.block_ops * std::max({fill, least, int64_t{1}});
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "fig1_paper") return std::make_unique<Fig1Paper>(config);
  if (name == "topk_fpras") return std::make_unique<TopkFpras>(config);
  if (name == "refine_rerank") return std::make_unique<RefineRerank>(config);
  if (name == "repeat_dashboard") {
    return std::make_unique<RepeatDashboard>(config);
  }
  return nullptr;
}

}  // namespace mudb::bench
