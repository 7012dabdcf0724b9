//! The process-wide fleet worker pool.
//!
//! Every fleet batch ([`crate::run_fleet`] and the drills' shard passes)
//! runs on the same long-lived workers, each with a
//! [`WORKER_STACK_BYTES`] stack. A fresh thread faults its stack in again
//! page by page; a worker that has run a tenant before has its stack and its
//! allocator arena warm, so a batch costs about what its tenants cost. The
//! pool starts empty and grows only up to the largest shard count any caller
//! has asked for; workers live until the process exits.
//!
//! Workers take jobs from one shared queue, so concurrent callers share the
//! pool and no caller waits for a worker of its own. A job must not submit
//! to the pool itself: with every worker busy, it would wait forever.
//! Workers are never joined; a job's panic is caught on its worker and
//! handed to the caller, so a detached worker hides nothing.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

use crate::WORKER_STACK_BYTES;

type Job = Box<dyn FnOnce() + Send>;

struct Pool {
    jobs: Sender<Job>,
    queue: Arc<Mutex<Receiver<Job>>>,
    workers: usize,
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let (jobs, queue) = mpsc::channel();
        Mutex::new(Pool {
            jobs,
            queue: Arc::new(Mutex::new(queue)),
            workers: 0,
        })
    })
}

/// Runs `job(shard)` for every shard in `0..shards` on the pool, up to
/// `shards` at once, and returns the results in shard order. A shard that
/// panics is caught on its worker, which lives on; once every shard has
/// finished, the lowest panicking shard's panic is raised again here.
pub(crate) fn run<R: Send + 'static>(
    shards: usize,
    job: impl Fn(usize) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let job = Arc::new(job);
    let (done, finished) = mpsc::channel();
    {
        let mut pool = pool().lock().expect("no pool holder panics");
        while pool.workers < shards {
            let queue = Arc::clone(&pool.queue);
            std::thread::Builder::new()
                .name(format!("efex-fleet-{}", pool.workers))
                .stack_size(WORKER_STACK_BYTES)
                .spawn(move || loop {
                    let next = queue.lock().expect("no queue holder panics").recv();
                    match next {
                        Ok(job) => job(),
                        Err(_) => return,
                    }
                })
                .expect("spawn fleet worker");
            pool.workers += 1;
        }
        for shard in 0..shards {
            let job = Arc::clone(&job);
            let done = done.clone();
            pool.jobs
                .send(Box::new(move || {
                    let result = panic::catch_unwind(AssertUnwindSafe(|| job(shard)));
                    // The caller waits for every shard, so it is listening.
                    let _ = done.send((shard, result));
                }))
                .expect("the pool owns its queue");
        }
    }
    let mut results: Vec<Option<std::thread::Result<R>>> = (0..shards).map(|_| None).collect();
    for _ in 0..shards {
        let (shard, result) = finished.recv().expect("every shard reports");
        results[shard] = Some(result);
    }
    results
        .into_iter()
        .map(|r| match r.expect("every shard reported") {
            Ok(value) => value,
            Err(payload) => panic::resume_unwind(payload),
        })
        .collect()
}

/// How many workers the pool has started.
#[cfg(test)]
pub(crate) fn workers() -> usize {
    pool().lock().expect("no pool holder panics").workers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_shard_order() {
        assert_eq!(run(3, |shard| shard * 10), vec![0, 10, 20]);
        assert!(workers() >= 3);
        assert_eq!(run(0, |shard| shard), Vec::<usize>::new());
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_and_the_pool_survives() {
        let caught = panic::catch_unwind(|| {
            run(2, |shard| {
                if shard == 1 {
                    panic!("shard {shard} failed");
                }
                shard
            })
        })
        .expect_err("the panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("shard 1 failed")
        );
        assert_eq!(run(2, |shard| shard + 1), vec![1, 2]);
    }
}
