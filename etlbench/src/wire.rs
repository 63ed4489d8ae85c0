//! Client-side transport probe: a [`Connect`] decorator whose
//! transports count frames and bytes each way, time every blocking
//! receive, and time request → reply turnarounds by request kind.
//!
//! The legacy protocol is strictly request/response per connection, so
//! the reply to a frame is the next frame received on the same
//! connection; the turnaround of a `DataChunk` is its `Ack`, of an
//! `EndLoad` the `LoadReport`, of a `Logon` the logon reply.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use etlv_legacy_client::Connect;
use etlv_protocol::frame::{Frame, MsgKind};
use etlv_protocol::transport::{RecvOutcome, Transport};

/// Request → reply turnaround samples, ms, by request kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Turnarounds {
    /// `Logon` → reply.
    pub logon: Vec<f64>,
    /// `Sql` → `SqlResult`.
    pub sql: Vec<f64>,
    /// `EndLoad` → `LoadReport` (the application phase seen by the client).
    pub end_load: Vec<f64>,
    /// `DataChunk` → `Ack`.
    pub chunk_ack: Vec<f64>,
}

/// Counters shared by every transport one [`CountingConnector`] opens.
#[derive(Debug, Default)]
pub struct WireStats {
    connects: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    wait_us: AtomicU64,
    turnarounds: Mutex<Turnarounds>,
}

/// Everything a [`WireStats`] counted since the last [`WireStats::take`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireDelta {
    /// Connections opened.
    pub connects: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Encoded bytes sent (header, payload and trailer).
    pub bytes_out: u64,
    /// Frames received.
    pub frames_in: u64,
    /// Encoded bytes received.
    pub bytes_in: u64,
    /// Time spent blocked in receive calls.
    pub wait: Duration,
    /// Turnaround samples.
    pub turnarounds: Turnarounds,
}

impl WireStats {
    /// Read and reset every counter.
    pub fn take(&self) -> WireDelta {
        let take = |a: &AtomicU64| a.swap(0, Ordering::Relaxed);
        WireDelta {
            connects: take(&self.connects),
            frames_out: take(&self.frames_out),
            bytes_out: take(&self.bytes_out),
            frames_in: take(&self.frames_in),
            bytes_in: take(&self.bytes_in),
            wait: Duration::from_micros(take(&self.wait_us)),
            turnarounds: std::mem::take(&mut *self.turnarounds.lock().expect("probe lock")),
        }
    }

    fn record(&self, request: MsgKind, reply: MsgKind, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        let mut t = self.turnarounds.lock().expect("probe lock");
        match (request, reply) {
            (MsgKind::Logon, _) => t.logon.push(ms),
            (MsgKind::Sql, _) => t.sql.push(ms),
            (MsgKind::EndLoad, _) => t.end_load.push(ms),
            (MsgKind::DataChunk, MsgKind::Ack) => t.chunk_ack.push(ms),
            _ => {}
        }
    }
}

/// Wraps a connector so every transport it opens reports to `stats`.
pub struct CountingConnector {
    inner: Arc<dyn Connect>,
    stats: Arc<WireStats>,
}

impl CountingConnector {
    /// Decorate `inner`.
    pub fn new(inner: Arc<dyn Connect>, stats: Arc<WireStats>) -> CountingConnector {
        CountingConnector { inner, stats }
    }
}

impl Connect for CountingConnector {
    fn connect(&self) -> io::Result<Box<dyn Transport>> {
        let inner = self.inner.connect()?;
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(CountingTransport::new(
            inner,
            Arc::clone(&self.stats),
        )))
    }
}

/// A transport that counts and times what passes through it.
pub struct CountingTransport {
    inner: Box<dyn Transport>,
    stats: Arc<WireStats>,
    /// The last request sent and when, until its reply arrives.
    pending: Option<(MsgKind, Instant)>,
}

impl CountingTransport {
    /// Decorate `inner`.
    pub fn new(inner: Box<dyn Transport>, stats: Arc<WireStats>) -> CountingTransport {
        CountingTransport {
            inner,
            stats,
            pending: None,
        }
    }

    fn received(&mut self, started: Instant, frame: Option<&Frame>) {
        let s = &self.stats;
        s.wait_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        if let Some(frame) = frame {
            s.frames_in.fetch_add(1, Ordering::Relaxed);
            s.bytes_in
                .fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
            if let Some((request, sent)) = self.pending.take() {
                s.record(request, frame.kind, sent.elapsed());
            }
        }
    }
}

impl Transport for CountingTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
        self.pending = Some((frame.kind, Instant::now()));
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        let started = Instant::now();
        let result = self.inner.recv();
        self.received(started, result.as_ref().ok().and_then(Option::as_ref));
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Frame>> {
        let started = Instant::now();
        let result = self.inner.recv_timeout(timeout);
        self.received(started, result.as_ref().ok().and_then(Option::as_ref));
        result
    }

    fn recv_wait(&mut self, timeout: Duration) -> io::Result<RecvOutcome> {
        let started = Instant::now();
        let result = self.inner.recv_wait(timeout);
        let frame = match &result {
            Ok(RecvOutcome::Frame(frame)) => Some(frame),
            _ => None,
        };
        self.received(started, frame);
        result
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stats
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.send_raw(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_protocol::frame::{HEADER_LEN, TRAILER_LEN};
    use etlv_protocol::transport::duplex;

    fn frame(kind: MsgKind, payload: usize) -> Frame {
        Frame::new(kind, 1, 1, vec![7u8; payload])
    }

    #[test]
    fn counts_frames_bytes_and_turnarounds_exactly() {
        let stats = Arc::new(WireStats::default());
        let (client, mut server) = duplex();
        let mut client = CountingTransport::new(Box::new(client), Arc::clone(&stats));
        let exchanges = [
            (MsgKind::Logon, 10, MsgKind::LogonOk, 4),
            (MsgKind::DataChunk, 1000, MsgKind::Ack, 8),
            (MsgKind::DataChunk, 500, MsgKind::Ack, 8),
            (MsgKind::EndLoad, 20, MsgKind::LoadReport, 80),
            (MsgKind::Sql, 30, MsgKind::SqlResult, 12),
            (MsgKind::Keepalive, 0, MsgKind::Keepalive, 0),
        ];
        for (req, req_len, reply, reply_len) in exchanges {
            client.send(&frame(req, req_len)).unwrap();
            let got = server.recv().unwrap().unwrap();
            assert_eq!(got.kind, req);
            server.send(&frame(reply, reply_len)).unwrap();
            assert_eq!(client.recv().unwrap().unwrap().kind, reply);
        }
        let overhead = (HEADER_LEN + TRAILER_LEN) as u64;
        let d = stats.take();
        assert_eq!(d.frames_out, 6);
        assert_eq!(d.frames_in, 6);
        assert_eq!(d.bytes_out, 1560 + 6 * overhead);
        assert_eq!(d.bytes_in, 112 + 6 * overhead);
        assert_eq!(d.turnarounds.logon.len(), 1);
        assert_eq!(d.turnarounds.chunk_ack.len(), 2);
        assert_eq!(d.turnarounds.end_load.len(), 1);
        assert_eq!(d.turnarounds.sql.len(), 1);
        // `take` resets.
        assert_eq!(stats.take(), WireDelta::default());
    }

    /// A 5-row import in chunks of 2 through a real node: both probes
    /// count it exactly. The node serves over an in-memory transport
    /// that is itself counted, so every byte the client sends must
    /// arrive at the server and the other way round.
    #[test]
    fn tiny_import_is_counted_exactly_by_both_probes() {
        use std::thread::JoinHandle;

        use etlv_cdw::{Cdw, CdwConfig};
        use etlv_cloudstore::{MemStore, ObjectStore};
        use etlv_core::{Virtualizer, VirtualizerConfig};
        use etlv_legacy_client::import::run_import;
        use etlv_legacy_client::{ClientOptions, FnConnector, Session};
        use etlv_protocol::message::SessionRole;
        use etlv_workloadgen::data::target_ddl;
        use etlv_workloadgen::{tenant_user, ImportSpec};

        use crate::store::{CountingStore, StoreStats};

        let store_stats = Arc::new(StoreStats::default());
        let store: Arc<dyn ObjectStore> = Arc::new(CountingStore::new(
            Arc::new(MemStore::new()),
            Arc::clone(&store_stats),
        ));
        let cdw = Cdw::with_config(CdwConfig::default(), Some(Arc::clone(&store)));
        let v = Virtualizer::with_backends(VirtualizerConfig::default(), cdw, store);

        let server_stats = Arc::new(WireStats::default());
        let servers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let connector: Arc<dyn Connect> = {
            let (v, stats, servers) = (v.clone(), Arc::clone(&server_stats), Arc::clone(&servers));
            Arc::new(FnConnector(move || {
                let (client, server) = duplex();
                let (v, stats) = (v.clone(), Arc::clone(&stats));
                let serve = std::thread::spawn(move || {
                    let _ = v.serve(CountingTransport::new(Box::new(server), stats));
                });
                servers.lock().unwrap().push(serve);
                Ok(Box::new(client) as Box<dyn Transport>)
            }))
        };
        let client_stats = Arc::new(WireStats::default());
        let connector: Arc<dyn Connect> =
            Arc::new(CountingConnector::new(connector, Arc::clone(&client_stats)));

        let spec = ImportSpec {
            table: "WG_T00_TAB01".into(),
            user: tenant_user(0),
            rows: 5,
            row_bytes: 40,
            date_error_ppm: 0,
            dup_key_ppm: 0,
            sessions: 1,
            key_space: 0,
            data_seed: 3,
            planned_bad_dates: 0,
            planned_dup_keys: 0,
        };
        let mut control = Session::logon(
            connector.as_ref(),
            &spec.user,
            "secret",
            SessionRole::Control,
            0,
        )
        .unwrap();
        control
            .sql(&target_ddl(&spec.table, spec.row_bytes))
            .unwrap();
        control.logoff();
        // The server sent its logoff reply before the client read it, so
        // the DDL session's frames are all counted by now.
        client_stats.take();
        server_stats.take();
        store_stats.take();

        let options = ClientOptions {
            chunk_rows: 2,
            sessions: Some(1),
            read_timeout: Some(Duration::from_secs(30)),
            ..ClientOptions::default()
        };
        let result = run_import(&connector, &spec.job(), &spec.payload().data, &options).unwrap();
        assert_eq!(result.report.rows_applied, 5);
        drop(connector);
        for serve in servers.lock().unwrap().drain(..) {
            serve.join().unwrap();
        }
        let client = client_stats.take();
        let server = server_stats.take();

        // Control: Logon, BeginLoad, EndLoad, Logoff. Data: Logon,
        // 3 DataChunks, Logoff.
        assert_eq!(client.connects, 2);
        assert_eq!(client.frames_out, 9);
        let t = &client.turnarounds;
        assert_eq!(
            (t.logon.len(), t.chunk_ack.len(), t.end_load.len()),
            (2, 3, 1)
        );
        assert!(t.sql.is_empty());
        assert_eq!(
            (server.frames_in, server.bytes_in),
            (client.frames_out, client.bytes_out)
        );
        assert_eq!(
            (server.frames_out, server.bytes_out),
            (client.frames_in, client.bytes_in)
        );
        assert!(client.bytes_out > result.bytes_sent);

        // One staged part: put by the uploader, read back by COPY, then
        // deleted, with byte counts matching the node's own report.
        let report = v.last_job_report().unwrap();
        let s = store_stats.take();
        assert_eq!(s.puts, report.files_staged);
        assert_eq!(s.put_bytes, report.bytes_staged);
        assert_eq!((s.gets, s.get_bytes), (s.puts, s.put_bytes));
        assert_eq!(s.deletes, s.puts);
    }

    #[test]
    fn a_reply_is_matched_to_the_latest_request_only_once() {
        let stats = Arc::new(WireStats::default());
        let (client, mut server) = duplex();
        let mut client = CountingTransport::new(Box::new(client), Arc::clone(&stats));
        client.send(&frame(MsgKind::DataChunk, 1)).unwrap();
        server.recv().unwrap().unwrap();
        server.send(&frame(MsgKind::Ack, 1)).unwrap();
        server.send(&frame(MsgKind::Ack, 1)).unwrap();
        client.recv().unwrap().unwrap();
        client
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        let d = stats.take();
        assert_eq!(d.frames_in, 2);
        assert_eq!(d.turnarounds.chunk_ack.len(), 1);
    }
}
