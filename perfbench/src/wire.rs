//! The served side: an in-process `Server` driven over loopback by the
//! public `Client`, one closed loop per connection.

use crate::ops::{setup_ops, Op, Params, QUERY_TEMPLATES};
use std::io;
use std::time::Instant;
use tdf_serve::{Client, Response, Server, ServerConfig, SessionConfig};

/// What one request got back over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Send → last byte of the response frame, in nanoseconds.
    pub latency_ns: u64,
    /// The response, or `None` after a transport or protocol error.
    pub response: Option<Response>,
}

/// The server configuration every workload starts.
pub fn server_config(p: &Params) -> ServerConfig {
    ServerConfig {
        rows: p.initial_rows,
        seed: p.seed,
        workers: 0,
        session: SessionConfig::default(),
        pir_records: p.pir_records,
        pir_record_size: p.pir_record_size,
        pir_batch_window_ms: 1,
        pir_batch_max: 64,
        compact_min: p.compact_min,
        disguise_users: crate::ops::OWNERS,
        disguise_wal: None,
        read_deadline_ms: 0,
    }
}

/// Sends one op and waits for its response.
pub fn call(client: &mut Client, op: &Op) -> io::Result<Response> {
    match *op {
        Op::Query { user, template } => client.query(user, QUERY_TEMPLATES[template]),
        Op::Pir { index } => client.pir_fetch(0, index),
        Op::Append { count } => client.append(0, count),
        Op::Seal => client.seal(0),
        Op::Disguise { owner } => client.disguise(owner),
        Op::Restore { owner } => client.restore(owner),
    }
}

fn drive_one(client: &mut Client, ops: impl Iterator<Item = (usize, Op)>) -> Vec<(usize, Outcome)> {
    let mut broken = false;
    ops.map(|(i, op)| {
        if broken {
            return (
                i,
                Outcome {
                    latency_ns: 0,
                    response: None,
                },
            );
        }
        let sent = Instant::now();
        let response = call(client, &op).ok();
        let latency_ns = sent.elapsed().as_nanos() as u64;
        broken = response.is_none();
        (
            i,
            Outcome {
                latency_ns,
                response,
            },
        )
    })
    .collect()
}

/// Runs `ops` closed-loop, op `i` on connection `i % clients.len()`, one
/// thread per connection. After a transport error a connection sends
/// nothing more and its remaining ops fail.
pub fn drive(clients: &mut [Client], ops: &[Op]) -> Vec<Outcome> {
    let n = clients.len();
    if n == 1 {
        return drive_one(&mut clients[0], ops.iter().copied().enumerate())
            .into_iter()
            .map(|(_, o)| o)
            .collect();
    }
    let mut slots: Vec<Option<Outcome>> = vec![None; ops.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    drive_one(client, ops.iter().copied().enumerate().skip(c).step_by(n))
                })
            })
            .collect();
        for h in handles {
            for (i, o) in h.join().expect("client thread panicked") {
                slots[i] = Some(o);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every op ran on some connection"))
        .collect()
}

/// A server brought up to the first timed request.
pub struct Live {
    /// The running server.
    pub server: Server,
    /// One client per connection.
    pub clients: Vec<Client>,
    /// Outcomes of [`setup_ops`] followed by the warm-up prefix.
    pub outcomes: Vec<Outcome>,
    /// `Server::start` → ready for the first timed request, in seconds.
    pub setup_s: f64,
}

/// Starts a server and runs set-up: the population ingest and owner pass
/// on the first connection, then the warm-up prefix `warmup` closed-loop.
pub fn set_up(p: &Params, warmup: &[Op]) -> io::Result<Live> {
    let started = Instant::now();
    let server = Server::start(server_config(p))?;
    let clients: io::Result<Vec<Client>> = (0..p.connections)
        .map(|_| Client::connect(server.addr()))
        .collect();
    let mut clients = match clients {
        Ok(c) => c,
        Err(e) => {
            server.shutdown();
            return Err(e);
        }
    };
    let mut outcomes = drive(&mut clients[..1], &setup_ops(p));
    outcomes.extend(drive(&mut clients, warmup));
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Live {
        server,
        clients,
        outcomes,
        setup_s,
    })
}

impl Live {
    /// Says goodbye on every connection and shuts the server down.
    pub fn shut_down(self) {
        for mut c in self.clients {
            let _ = c.bye(0);
        }
        self.server.shutdown();
    }
}
