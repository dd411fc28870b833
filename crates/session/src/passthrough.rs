//! [`Backend`] over the non-scheduling passthrough mode.
//!
//! The paper: "In this mode, the scheduler forwards the requests to the
//! server without scheduling.  This way, the server undertakes the task of
//! doing request scheduling."  The worker owns a `txnstore` engine with its
//! native lock-based scheduling on and hands it each statement as is, so
//! the difference between this deployment and a scheduling one is, by
//! construction, the declarative scheduling overhead.  To serve pipelined
//! sessions the forwarding runs on its own worker thread: transactions
//! queue in arrival order, a statement the server blocks on a native lock
//! stays queued and is retried in arrival order whenever anything else
//! makes progress (the lock holder's commit arrives as a later
//! submission).

use crate::backend::{Backend, BackendKind, Completion};
use crate::report::Report;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use declsched::{DispatchReport, Operation, Request, SchedError, SchedResult, SchedulerMetrics};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use txnstore::{Engine, ExecOutcome};

enum PassthroughMessage {
    Txn {
        requests: Vec<Request>,
        reply: Sender<SchedResult<()>>,
    },
    Shutdown,
}

pub(crate) struct PassthroughBackend {
    sender: Sender<PassthroughMessage>,
    worker: Mutex<Option<JoinHandle<Report>>>,
}

impl PassthroughBackend {
    /// Start the passthrough worker with a chaos injector threaded into
    /// the forward loop (`WorkerRound`/`WorkerCommit` on shard 0).
    pub(crate) fn start_chaos(
        table: String,
        rows: usize,
        injector: Arc<chaos::FaultInjector>,
    ) -> SchedResult<Self> {
        let mut engine = Engine::new();
        engine.setup_benchmark_table(&table, rows)?;
        let (sender, receiver) = unbounded::<PassthroughMessage>();
        let worker = std::thread::Builder::new()
            .name("declsched-passthrough".to_string())
            .spawn(move || forward_loop(engine, receiver, table, rows, injector))
            .expect("spawning the passthrough worker cannot fail");
        Ok(PassthroughBackend {
            sender,
            worker: Mutex::new(Some(worker)),
        })
    }
}

impl Backend for PassthroughBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Passthrough
    }

    fn submit(&self, requests: Vec<Request>) -> SchedResult<Completion> {
        let (reply_tx, reply_rx) = bounded(1);
        self.sender
            .send(PassthroughMessage::Txn {
                requests,
                reply: reply_tx,
            })
            .map_err(|_| SchedError::ChannelClosed {
                endpoint: "passthrough worker",
            })?;
        Ok(Completion::Channel(reply_rx))
    }

    fn shutdown(&self) -> SchedResult<Report> {
        let worker = self
            .worker
            .lock()
            .expect("passthrough backend lock poisoned")
            .take()
            .ok_or(SchedError::BackendShutdown {
                backend: "passthrough",
            })?;
        let _ = self.sender.send(PassthroughMessage::Shutdown);
        Ok(worker
            .join()
            .expect("passthrough worker never panics during an orderly shutdown"))
    }
}

/// One queued transaction and how far it has executed.
struct InFlight {
    requests: Vec<Request>,
    next: usize,
    reply: Sender<SchedResult<()>>,
}

/// The passthrough worker body.
fn forward_loop(
    mut engine: Engine,
    receiver: Receiver<PassthroughMessage>,
    table: String,
    rows: usize,
    injector: Arc<chaos::FaultInjector>,
) -> Report {
    let started = Instant::now();
    let mut queue: VecDeque<InFlight> = VecDeque::new();
    let mut dispatch = DispatchReport::default();
    let mut executed_log: Vec<Request> = Vec::new();
    let mut transactions = 0u64;
    let mut disconnected = false;
    // Chaos kill switch: once the worker is "killed" every queued and
    // later-arriving transaction fails; only shutdown is still honoured.
    let mut killed = false;

    loop {
        // Block until mail: a statement blocked on a native lock is only
        // ever unblocked by a later submission (its holder's terminal).
        match receiver.recv() {
            Ok(first) => {
                let mut handle = |msg: PassthroughMessage, disconnected: &mut bool| match msg {
                    PassthroughMessage::Txn { requests, reply } => {
                        transactions += 1;
                        if killed {
                            let _ = reply.send(Err(SchedError::Dispatch {
                                message: "chaos: passthrough worker killed".to_string(),
                            }));
                        } else if requests.is_empty() {
                            let _ = reply.send(Ok(()));
                        } else {
                            queue.push_back(InFlight {
                                requests,
                                next: 0,
                                reply,
                            });
                        }
                    }
                    PassthroughMessage::Shutdown => *disconnected = true,
                };
                handle(first, &mut disconnected);
                while let Ok(msg) = receiver.try_recv() {
                    handle(msg, &mut disconnected);
                }
            }
            Err(_) => disconnected = true,
        }

        match injector.fire(chaos::Hook::WorkerRound { shard: 0 }) {
            Some(chaos::Fault::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(chaos::Fault::Kill) if !killed => {
                killed = true;
                for txn in queue.drain(..) {
                    let _ = txn.reply.send(Err(SchedError::Dispatch {
                        message: "chaos: passthrough worker killed".to_string(),
                    }));
                }
            }
            _ => {}
        }

        // Forward in arrival order until a full pass makes no progress
        // (everything left is blocked on a native lock whose holder has not
        // submitted its terminal yet).  A killed worker forwards nothing.
        loop {
            if killed {
                break;
            }
            let mut progressed = false;
            let mut index = 0;
            while index < queue.len() {
                let mut remove = false;
                loop {
                    let request = {
                        let txn = &queue[index];
                        txn.requests.get(txn.next).cloned()
                    };
                    let Some(request) = request else {
                        let txn = queue.remove(index).expect("index in bounds");
                        let _ = txn.reply.send(Ok(()));
                        remove = true;
                        break;
                    };
                    if request.op.is_terminal() {
                        if let Some(chaos::Fault::Stall { millis }) =
                            injector.fire(chaos::Hook::WorkerCommit { shard: 0 })
                        {
                            std::thread::sleep(Duration::from_millis(millis));
                        }
                    }
                    match engine.execute(&request.to_statement(&table)) {
                        Ok(ExecOutcome::Completed { .. }) => {
                            progressed = true;
                            count(&mut dispatch, request.op);
                            executed_log.push(request);
                            queue[index].next += 1;
                        }
                        Ok(ExecOutcome::Blocked { .. }) => break,
                        Ok(ExecOutcome::DeadlockVictim { .. }) => {
                            progressed = true;
                            dispatch.aborts += 1;
                            let ta = request.ta;
                            let txn = queue.remove(index).expect("index in bounds");
                            let _ = txn.reply.send(Err(SchedError::Dispatch {
                                message: format!(
                                    "transaction T{ta} aborted as a native deadlock victim"
                                ),
                            }));
                            remove = true;
                            break;
                        }
                        Err(e) => {
                            progressed = true;
                            let txn = queue.remove(index).expect("index in bounds");
                            let _ = txn.reply.send(Err(e.into()));
                            remove = true;
                            break;
                        }
                    }
                }
                if !remove {
                    index += 1;
                }
            }
            if !progressed {
                break;
            }
        }

        if disconnected {
            if !queue.is_empty() {
                // Nothing left can make progress and no unblocking
                // submission can arrive any more: fail the stragglers.
                for txn in queue.drain(..) {
                    let ta = txn.requests.first().map(|r| r.ta).unwrap_or(0);
                    let _ = txn.reply.send(Err(SchedError::TransactionFinished { ta }));
                }
            }
            break;
        }
    }

    let final_rows = declsched::dispatch::snapshot_final_rows(&engine, &table, rows);
    Report {
        backend: BackendKind::Passthrough,
        transactions,
        rounds: 0,
        scheduler: SchedulerMetrics::default(),
        dispatch,
        executed_log,
        final_rows,
        sharded: None,
        server: Some(engine.metrics()),
        tiers: Vec::new(),
        trace: obs::Trace::default(),
        anomalies: Vec::new(),
        wall: started.elapsed(),
    }
}

fn count(dispatch: &mut DispatchReport, op: Operation) {
    match op {
        Operation::Read => {
            dispatch.executed += 1;
            dispatch.reads += 1;
        }
        Operation::Write => {
            dispatch.executed += 1;
            dispatch.writes += 1;
        }
        Operation::Commit => dispatch.commits += 1,
        Operation::Abort => dispatch.aborts += 1,
    }
}
