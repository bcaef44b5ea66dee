//! Set-up and the timed phase: a `SecureServer` on the epoll transport,
//! driven by one closed-loop client over one keep-alive connection.

use crate::client::{self, Client, Response};
use crate::corpus::{Kind, Op, Role, Stream, Workload};
use crate::stats::{fnv, usage, Scrape};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xmlsec_server::{EpollDemo, SecureServer};

/// A warmed pair's view as served during set-up.
pub struct Warm {
    pub etag: String,
    pub hash: u64,
}

pub struct Setup {
    pub workload: Workload,
    /// The written document's initial bytes (the shadow replay's start).
    pub write_text: String,
    pub warm: HashMap<(usize, usize), Warm>,
    pub demo: EpollDemo,
    pub client: Client,
    pub seconds: f64,
}

/// Builds the server the workload runs against: its directory, policy,
/// credentials, DTD and documents, with the default configuration.
pub fn build_server(w: &Workload, texts: &[String]) -> SecureServer {
    let mut s = SecureServer::new(w.dir.clone(), w.base.clone());
    for c in w.domain.classes() {
        if let Some(u) = c.user {
            s.register_credentials(u, &client::secret(u));
        }
    }
    let repo = s.repository_mut();
    repo.put_dtd(w.domain.dtd_uri(), w.domain.dtd_text());
    for (d, text) in w.docs.iter().zip(texts) {
        repo.put_document(&d.uri, text, Some(w.domain.dtd_uri()));
    }
    s
}

pub fn who(w: &Workload, class: usize) -> String {
    let c = &w.domain.classes()[class];
    client::who(c.user, c.ip, c.host)
}

/// Generates the corpus and script, loads the server, starts the
/// transport and warms every hot pair and every class's view of the
/// written document.
pub fn setup(domain: crate::corpus::Domain, seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let workload = Workload::generate(domain, seed);
    let texts: Vec<String> = workload.docs.iter().map(|d| d.render(domain)).collect();
    let server = build_server(&workload, &texts);
    let write_text = texts[workload.write_doc()].clone();
    drop(texts);
    let demo = EpollDemo::start(server, "127.0.0.1:0").map_err(|e| format!("start: {e}"))?;
    let mut client = Client::connect(demo.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut warm = HashMap::new();
    let classes = domain.classes().len();
    for (i, d) in workload.docs.iter().enumerate() {
        if d.role == Role::Cold {
            continue;
        }
        for c in 0..classes {
            let r = client
                .call(&client::get(&d.uri, &who(&workload, c), None, None))
                .map_err(|e| format!("warm-up: {e}"))?;
            match (r.status, r.etag) {
                (200, Some(etag)) => warm.insert((i, c), Warm { etag, hash: fnv(&r.body) }),
                (s, _) => return Err(format!("warm-up GET {} as class {c}: status {s}", d.uri)),
            };
        }
    }
    client.call(&client::metrics()).map_err(|e| format!("metrics: {e}"))?;
    Ok(Setup { workload, write_text, warm, demo, client, seconds: t.elapsed().as_secs_f64() })
}

/// One executed operation.
pub struct Record {
    pub op: Op,
    /// 0 when the transport failed.
    pub status: u16,
    pub latency_ms: f64,
    pub hash: u64,
    pub etag: Option<String>,
    /// The `If-None-Match` tag sent, if any.
    pub sent_tag: Option<String>,
    pub wire_bytes: usize,
    /// The body, kept only for the written document's sampled rounds.
    pub body: Option<Vec<u8>>,
}

impl Record {
    pub fn failed(&self) -> bool {
        self.status != self.op.kind.expected_status()
    }
}

pub struct Phase {
    pub records: Vec<Record>,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub before: Scrape,
    pub after: Scrape,
}

impl Phase {
    pub fn ok(&self, kind: Kind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.op.kind == kind && !r.failed())
            .map(|r| r.latency_ms)
            .collect()
    }

    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failed()).count()
    }
}

pub fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let r = client.call(&client::metrics()).map_err(|e| format!("metrics: {e}"))?;
    Ok(Scrape::parse(&String::from_utf8_lossy(&r.body)))
}

/// Runs whole rounds of the script until `seconds` have passed.
/// `keep_bodies(round)` selects the rounds whose reads of the written
/// document are kept for the shadow-replay oracle.
pub fn timed_phase(
    s: &mut Setup,
    seconds: f64,
    keep_bodies: impl Fn(usize) -> bool,
) -> Result<Phase, String> {
    let w = &s.workload;
    let mut tags: HashMap<(usize, usize), String> =
        s.warm.iter().map(|(k, v)| (*k, v.etag.clone())).collect();
    let who: Vec<String> = (0..w.domain.classes().len()).map(|c| who(w, c)).collect();
    let before = scrape(&mut s.client)?;
    let mut records = Vec::new();
    let mut stream = Stream::new(&w.script);
    let limit = Duration::from_secs_f64(seconds);
    let u0 = usage();
    let start = Instant::now();
    while start.elapsed() < limit {
        for op in stream.next_round() {
            let uri = &w.docs[op.doc].uri;
            let pair = (op.doc, op.class);
            let sent_tag = match op.kind {
                Kind::Revalidate | Kind::ReadAfterUpdate => tags.get(&pair).cloned(),
                _ => None,
            };
            let query = op.query.map(|q| w.domain.queries()[q]);
            let request = match &op.edit {
                Some(edit) => client::post_update(uri, &who[op.class], &edit.body()),
                None => client::get(uri, &who[op.class], query, sent_tag.as_deref()),
            };
            let t = Instant::now();
            let response = s.client.call(&request);
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            let Response { status, etag, body, wire_bytes } = match response {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("servebench: {:?} on {uri}: transport error: {e}", op.kind);
                    s.client = Client::connect(s.demo.addr()).map_err(|e| e.to_string())?;
                    Response { status: 0, etag: None, body: Vec::new(), wire_bytes: 0 }
                }
            };
            if status == 200 && op.edit.is_none() && op.query.is_none() {
                if let Some(tag) = &etag {
                    tags.insert(pair, tag.clone());
                }
            }
            let keep = op.kind == Kind::ReadAfterUpdate && keep_bodies(op.round);
            records.push(Record {
                hash: fnv(&body),
                body: keep.then_some(body),
                op,
                status,
                latency_ms,
                etag,
                sent_tag,
                wire_bytes,
            });
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let u1 = usage();
    let after = scrape(&mut s.client)?;
    Ok(Phase {
        records,
        elapsed_s,
        cpu_s: u1.cpu_s - u0.cpu_s,
        peak_rss_mb: u1.max_rss_mb,
        before,
        after,
    })
}
