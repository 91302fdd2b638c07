//! O01 fixture: obs recording calls must stand alone as statements.
//!
//! Bad: binding the call's result, leaving it as a trailing expression,
//! passing it as an argument. Good: bare statements (direct field or
//! `obs()` accessor receiver), the `enabled()` gate, and a suppressed
//! site with a written reason.

fn consume<T>(_: T) {}

fn bad_binding(obs: &dba_obs::Obs) {
    let v = obs.event("latency", vec![]);
    consume(v);
}

fn bad_trailing(obs: &dba_obs::Obs) {
    obs.counter("hits", 1)
}

fn bad_argument(obs: &dba_obs::Obs) {
    consume(obs.event("x", vec![]));
}

fn good_statements(obs: &dba_obs::Obs) {
    obs.span_enter("round");
    obs.counter("hits", 1);
    obs.set_sim_now(now);
    obs.span_exit("round");
}

fn good_accessor(s: &Session) {
    if s.session.obs().enabled() {
        s.session.obs().event("window", vec![]);
    }
    s.session.obs().flush();
}

fn unrelated_receiver(metrics: &Metrics) {
    // A different receiver sharing a method name is not ours to police.
    let total = metrics.counter("hits", 1);
    consume(total);
}

fn allowed(obs: &dba_obs::Obs) {
    // lint: allow(O01) — fixture exercising the suppression path
    let _ = obs.counter("hits", 1);
}
