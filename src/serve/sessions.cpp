#include "serve/sessions.hpp"

#include "noc/topology.hpp"
#include "serve/param_reader.hpp"

namespace pap::serve {

namespace {

HandlerOutcome unknown_session(std::int64_t sid) {
  return bad("unknown session " + std::to_string(sid));
}

/// The `read` step of an op that takes no keys besides `session`.
Status no_keys(ParamReader&) { return Status::ok(); }

}  // namespace

std::size_t SessionRegistry::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

SessionRegistry::Locked SessionRegistry::acquire(std::int64_t id) const {
  Locked out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return out;
    out.session = it->second;
  }
  out.lock = std::unique_lock<std::mutex>(out.session->mu);
  // A close that locked the session first has already reported its
  // decision count; this op must not add an uncounted one.
  if (out.session->closed) return Locked{};
  return out;
}

HandlerOutcome SessionRegistry::open(const exp::Params& params) {
  ParamReader r(params);
  const int cols = static_cast<int>(
      r.get_int("mesh_cols", 4, 2, limits_.max_mesh_dim));
  const int rows = static_cast<int>(
      r.get_int("mesh_rows", 4, 2, limits_.max_mesh_dim));
  const std::string engine = r.get_string("engine", "incremental");
  r.finish();
  if (r.failed()) return bad(r.error());
  core::AdmissionEngine kind;
  if (engine == "incremental") {
    kind = core::AdmissionEngine::kIncremental;
  } else if (engine == "batch") {
    kind = core::AdmissionEngine::kBatch;
  } else {
    return bad("'engine' must be \"incremental\" or \"batch\"");
  }

  core::PlatformModel model;
  model.noc.cols = cols;
  model.noc.rows = rows;

  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int>(sessions_.size()) >= limits_.max_sessions) {
      return HandlerOutcome::fail(
          ErrorCode::kOverloaded,
          "session cap reached (" + std::to_string(limits_.max_sessions) +
              " open); close one first");
    }
    id = next_id_++;
    sessions_.emplace(id, std::make_shared<Session>(std::move(model), kind));
  }

  exp::Result out("admission_open");
  out.add("session", id).add("engine", engine);
  out.add("mesh_cols", static_cast<std::int64_t>(cols));
  out.add("mesh_rows", static_cast<std::int64_t>(rows));
  return HandlerOutcome::success(std::move(out));
}

template <typename Read, typename Op>
HandlerOutcome SessionRegistry::on_session(const exp::Params& params,
                                           Read read, Op op) {
  ParamReader r(params);
  r.require("session");
  const std::int64_t sid = r.get_int("session", 0, 1, INT64_MAX);
  const Status st = read(r);
  r.finish();
  if (r.failed()) return bad(r.error());
  if (!st.is_ok()) return bad(st.message());
  const auto [session, lock] = acquire(sid);
  if (!session) return unknown_session(sid);
  return op(*session, sid);
}

HandlerOutcome SessionRegistry::admit(const exp::Params& params) {
  core::AppRequirement a;
  // Validated against the session's mesh once it is locked.
  int sx = 0, sy = 0, dx = 0, dy = 0;
  const auto read = [&](ParamReader& r) {
    r.require("app");
    a.app = static_cast<noc::AppId>(r.get_int("app", 0, 1, 1 << 30));
    const double burst = r.get_double("burst", 1.0, 0.0, 1e6);
    r.require("rate");
    a.traffic = nc::TokenBucket{burst, r.get_double("rate", 0.0, 0.0, 1e6)};
    sx = static_cast<int>(r.get_int("src_x", 0, 0, 1 << 16));
    sy = static_cast<int>(r.get_int("src_y", 0, 0, 1 << 16));
    dx = static_cast<int>(r.get_int("dst_x", 0, 0, 1 << 16));
    dy = static_cast<int>(r.get_int("dst_y", 0, 0, 1 << 16));
    a.deadline =
        Time::from_ns(r.get_double("deadline_ns", 2000.0, 0.001, 1e12));
    a.uses_dram = r.get_bool("uses_dram", false);
    const std::string order = r.get_string("route_order", "xy");
    if (order == "yx") a.route_order = noc::Mesh2D::RouteOrder::kYX;
    return order == "xy" || order == "yx"
               ? Status::ok()
               : Status::error("'route_order' must be \"xy\" or \"yx\"");
  };
  return on_session(params, read, [&](Session& session, std::int64_t) {
    const auto& noc = session.controller.analysis().model().noc;
    if (sx >= noc.cols || dx >= noc.cols || sy >= noc.rows ||
        dy >= noc.rows) {
      return bad("src/dst outside the session's " + std::to_string(noc.cols) +
                 "x" + std::to_string(noc.rows) + " mesh");
    }
    if (session.controller.size() >=
        static_cast<std::size_t>(limits_.max_session_flows)) {
      return HandlerOutcome::fail(
          ErrorCode::kOverloaded,
          "session flow cap reached (" +
              std::to_string(limits_.max_session_flows) + ")");
    }

    noc::Mesh2D mesh(noc.cols, noc.rows);
    a.name = "app" + std::to_string(a.app);
    a.src = mesh.node(sx, sy);
    a.dst = mesh.node(dx, dy);

    ++session.decisions;
    const auto grant = session.controller.request(a);

    exp::Result out("admission_admit");
    out.add("app", static_cast<std::int64_t>(a.app));
    if (grant) {
      out.add("admitted", true);
      out.add("bound", grant.value().e2e_bound);
      out.add("shaper_rate", exp::Value{grant.value().noc_shaper.rate, 6});
      out.add("route_order",
              grant.value().route_order == noc::Mesh2D::RouteOrder::kXY
                  ? std::string("xy")
                  : std::string("yx"));
    } else {
      out.add("admitted", false);
      out.add("reason", grant.error_message());
    }
    return HandlerOutcome::success(std::move(out));
  });
}

HandlerOutcome SessionRegistry::release(const exp::Params& params) {
  std::int64_t app_id = 0;
  const auto read = [&app_id](ParamReader& r) {
    r.require("app");
    app_id = r.get_int("app", 0, 1, 1 << 30);
    return Status::ok();
  };
  return on_session(params, read, [&app_id](Session& session, std::int64_t) {
    ++session.decisions;
    const Status s =
        session.controller.release(static_cast<noc::AppId>(app_id));
    exp::Result out("admission_release");
    out.add("app", app_id);
    out.add("released", s.is_ok());
    if (!s.is_ok()) out.add("reason", s.message());
    return HandlerOutcome::success(std::move(out));
  });
}

HandlerOutcome SessionRegistry::stats(const exp::Params& params) {
  return on_session(params, no_keys, [](Session& session, std::int64_t) {
    const core::AdmissionController& ac = session.controller;
    exp::Result out("admission_stats");
    out.add("engine", ac.engine() == core::AdmissionEngine::kIncremental
                          ? std::string("incremental")
                          : std::string("batch"));
    out.add("flows", static_cast<std::int64_t>(ac.size()));
    out.add("decisions", static_cast<std::int64_t>(session.decisions));
    out.add("admissions", static_cast<std::int64_t>(ac.admissions()));
    out.add("rejections", static_cast<std::int64_t>(ac.rejections()));
    if (auto* inc = ac.incremental()) {
      const auto s = inc->stats();
      out.add("releases", static_cast<std::int64_t>(s.releases));
      out.add("live_links", static_cast<std::int64_t>(s.live_links));
      out.add("dirty_flows_total",
              static_cast<std::int64_t>(s.dirty_flows_total));
      out.add("dirty_links_total",
              static_cast<std::int64_t>(s.dirty_links_total));
      out.add("last_dirty_flows",
              static_cast<std::int64_t>(s.last_dirty_flows));
      out.add("last_dirty_links",
              static_cast<std::int64_t>(s.last_dirty_links));
    }
    return HandlerOutcome::success(std::move(out));
  });
}

HandlerOutcome SessionRegistry::close(const exp::Params& params) {
  return on_session(params, no_keys, [this](Session& session,
                                            std::int64_t sid) {
    // Holding the session's lock: ops that locked it earlier are counted
    // below; ops waiting on it see `closed` and answer "unknown session".
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.erase(sid);
    }
    session.closed = true;
    exp::Result out("admission_close");
    out.add("session", sid);
    out.add("decisions", static_cast<std::int64_t>(session.decisions));
    return HandlerOutcome::success(std::move(out));
  });
}

}  // namespace pap::serve
