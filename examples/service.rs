//! Serving many simulations (DESIGN.md §11): a batch of independent BFS
//! requests dispatched through a `SessionPool`, sharing cover builds via the
//! cover cache and recycling engine state between runs — with every pooled
//! schedule bit-identical to the same scenario run standalone.
//!
//! ```text
//! cargo run --example service
//! ```

use det_synchronizer::algos::bfs::BfsAlgorithm;
use det_synchronizer::prelude::*;
use det_synchronizer::sync::service::SessionPool;

fn main() {
    let grid = Graph::grid(8, 8);
    let torus = Graph::torus(6, 6);
    let requests: Vec<Session<'_>> = (0..8)
        .map(|i| {
            let graph = if i % 2 == 0 { &grid } else { &torus };
            Session::on(graph) // DetAuto by default
                .delay(DelayModel::jitter(3 + i)) // one adversary per request
        })
        .collect();

    let pool = SessionPool::new(2); // 2 worker threads (0 = inline)
    let results = pool.run_batch::<BfsAlgorithm, _>(&requests, |i, v| {
        BfsAlgorithm::new(requests[i].graph(), v, &[NodeId(0)])
    });
    for (i, (req, result)) in requests.iter().zip(&results).enumerate() {
        let run = result.as_ref().expect("pooled run");
        assert_eq!(run.outputs.len(), req.graph().node_count());

        // The headline guarantee: the pooled schedule is bit-identical to the
        // same request run standalone.
        let solo =
            req.run(|v| BfsAlgorithm::new(req.graph(), v, &[NodeId(0)])).expect("standalone run");
        assert_eq!(run.outputs, solo.outputs);
        assert_eq!(run.metrics, solo.metrics);
        println!(
            "request {i}: {} nodes, {} events, time-to-quiescence {}",
            run.outputs.len(),
            run.metrics.events,
            run.metrics.time_to_quiescence
        );
    }

    // Dispatch is by submission index, so here each topology stays on one
    // worker: its config is built exactly once and shared via Arc.
    assert_eq!(pool.cache().misses(), 2);
    assert_eq!(pool.cache().hits(), 6);
    println!(
        "cover cache: {} misses, {} hits; engine slabs: {} checkouts, {} reuses",
        pool.cache().misses(),
        pool.cache().hits(),
        pool.bank().checkouts(),
        pool.bank().reuses()
    );
}
