#include <sys/resource.h>

#include <algorithm>
#include <future>
#include <thread>
#include <utility>

#include "bench/ledger/ledger.h"
#include "common/check.h"
#include "core/planner.h"

namespace nc::ledger {

namespace {

// Warm-up requests carry this cap on Eq. 1 cost: each one plans (the plan
// key ignores the budget), performs one access and stops. Set-up then
// measures what a server must do before it serves at steady state, not
// the service time of the warm-up requests.
constexpr double kWarmUpBudget = 1e-9;

double CpuSeconds() {
  rusage usage{};
  NC_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

std::streamsize CountingBuf::xsputn(const char* /*s*/, std::streamsize n) {
  bytes_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  return n;
}

CountingBuf::int_type CountingBuf::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    bytes_.fetch_add(1, std::memory_order_relaxed);
  }
  return traits_type::not_eof(c);
}

Setup::Setup(const WorkloadSpec& spec) : corpus_(spec) {
  // The direct stacks are not thread-safe: one caller at a time.
  NC_CHECK(spec.served || spec.callers == 1);
  if (!spec.served) {
    for (const CostModel& cost : spec.regimes) {
      direct_stacks_.push_back(
          std::make_unique<LedgerStack>(spec, &corpus_.data(), cost));
    }
  } else {
    server::ServerConfig config = MakeServerConfig(spec);
    if (spec.observed) config.trace_sink = &sink_;
    const Dataset* data = &corpus_.data();
    const CostModel cost = spec.regimes.front();
    server_ = std::make_unique<server::QueryServer>(
        &corpus_.scoring(0), config, [&spec, data, cost](size_t) {
          return std::make_unique<LedgerStack>(spec, data, cost);
        });
    NC_CHECK(server_->Start().ok());
  }
  WarmUp();
}

Setup::~Setup() {
  if (server_ != nullptr) server_->Shutdown(/*finish_queued=*/true);
}

void Setup::WarmUp() {
  const WorkloadSpec& spec = corpus_.spec();
  if (!spec.served) {
    // Touches every regime's stack.
    Served served;
    for (size_t s = 0; s < spec.scorings.size(); ++s) {
      for (size_t r = 0; r < spec.regimes.size(); ++r) {
        NC_CHECK(Serve(Request{spec.k_max, s, r, kWarmUpBudget}, &served));
      }
    }
    return;
  }
  // Plan caches are per worker: keep offering each k to several workers
  // at once until every worker has planned it, so the measured window
  // never plans.
  for (size_t k = spec.k_min; k <= spec.k_max; ++k) {
    std::vector<bool> planned(server_->num_workers(), false);
    for (size_t round = 0;
         std::count(planned.begin(), planned.end(), true) <
         static_cast<std::ptrdiff_t>(planned.size());
         ++round) {
      NC_CHECK(round < 1000);
      std::vector<std::future<server::QueryResponse>> futures(
          2 * planned.size());
      for (auto& future : futures) {
        server::QueryRequest request;
        request.k = k;
        request.budget.max_cost = kWarmUpBudget;
        NC_CHECK(server_->Submit(request, &future).ok());
      }
      for (auto& future : futures) {
        const server::QueryResponse response = future.get();
        NC_CHECK(response.status.ok());
        planned[response.worker] = true;
      }
    }
  }
  // The window starts from a cold cache, so filling it is billed to the
  // requests that pay for it.
  ClearCache();
}

bool Setup::Serve(const Request& request, Served* out) {
  const WorkloadSpec& spec = corpus_.spec();
  if (!spec.served) {
    SourceSet& sources = direct_stacks_[request.regime]->sources();
    sources.Reset();
    QueryBudget budget;
    budget.max_cost = request.max_cost;
    NC_CHECK(sources.set_budget(budget).ok());
    const uint64_t start = NowNs();
    const Status status =
        RunOptimizedNC(&sources, corpus_.scoring(request.scoring), request.k,
                       PlannerOptions{}, &out->result);
    out->service_us = static_cast<double>(NowNs() - start) / 1000.0;
    out->cost = sources.accrued_cost();
    return status.ok();
  }
  server::QueryRequest query;
  query.k = request.k;
  query.budget.max_cost = request.max_cost;
  std::future<server::QueryResponse> future;
  if (!server_->Submit(query, &future).ok()) return false;
  server::QueryResponse response = future.get();
  out->result = std::move(response.result);
  out->service_us = response.wall_micros;
  out->cost = response.accrued_cost;
  return response.status.ok() &&
         response.outcome == server::ServeOutcome::kCompleted;
}

cache::CacheStatsSnapshot Setup::CacheSnapshot() const {
  if (server_ == nullptr || server_->access_cache() == nullptr) return {};
  return server_->access_cache()->Snapshot();
}

void Setup::ClearCache() {
  if (server_ != nullptr && server_->access_cache() != nullptr) {
    server_->access_cache()->Clear();
  }
}

WindowResult RunWindow(Setup& setup, uint64_t seed,
                       const WindowOptions& options) {
  const WorkloadSpec& spec = setup.corpus().spec();
  const Corpus& corpus = setup.corpus();
  struct CallerLog {
    std::vector<Request> requests;
    std::vector<TopKResult> answers;
    std::vector<double> latency_us;
    std::vector<double> service_us;
    std::vector<double> cost;
    size_t attempted = 0;
    size_t errors = 0;
    size_t wrong = 0;
    size_t certified = 0;
  };
  std::vector<CallerLog> logs(spec.callers);

  WindowResult out;
  out.cache_before = setup.CacheSnapshot();
  const double cpu_start = CpuSeconds();
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(options.seconds * 1e9);
  {
    std::vector<std::thread> callers;
    for (size_t c = 0; c < spec.callers; ++c) {
      callers.emplace_back([&, c] {
        CallerLog& log = logs[c];
        RequestStream stream(spec, seed, c);
        Served served;
        while (options.per_caller > 0 ? log.attempted < options.per_caller
                                      : NowNs() < deadline) {
          const Request request = stream.Next();
          ++log.attempted;
          const uint64_t sent = NowNs();
          const bool ok = setup.Serve(request, &served);
          const double latency = static_cast<double>(NowNs() - sent) / 1000.0;
          if (!ok) {
            ++log.errors;
            continue;
          }
          if (!corpus.Check(request, served.result)) ++log.wrong;
          if (served.result.certificate.has_value()) ++log.certified;
          log.latency_us.push_back(latency);
          log.service_us.push_back(served.service_us);
          log.cost.push_back(served.cost);
          if (options.keep_answers) {
            log.requests.push_back(request);
            log.answers.push_back(served.result);
          }
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
  out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  out.cpu_seconds = CpuSeconds() - cpu_start;
  out.cache_after = setup.CacheSnapshot();

  // Merged in caller order, so sums over identical per-request costs are
  // bit-identical from run to run.
  for (CallerLog& log : logs) {
    out.attempted += log.attempted;
    out.errors += log.errors;
    out.wrong += log.wrong;
    out.certified += log.certified;
    out.completed += log.latency_us.size();
    for (const double cost : log.cost) out.cost += cost;
    out.latency_us.insert(out.latency_us.end(), log.latency_us.begin(),
                          log.latency_us.end());
    out.service_us.insert(out.service_us.end(), log.service_us.begin(),
                          log.service_us.end());
    out.requests.push_back(std::move(log.requests));
    out.answers.push_back(std::move(log.answers));
  }
  return out;
}

}  // namespace nc::ledger
