//! The traced run: after the untraced phase (whose `/metrics` deltas
//! give the counts), replay the executed operations in-process with a
//! span around every call into a layer's public functions, keep the
//! spans in memory, write them out at the end and report self time per
//! layer.
//!
//! Two views are traced. The server view calls
//! `SecureServer::{handle_conditional, query, update}` with no
//! transport. The stage view calls the layer functions the processor
//! documents (parse, normalize, validate, authz, compile, label, prune,
//! loosen, serialize; select for queries; classify, apply, commit and
//! incremental relabel for writes) on the workload's own inputs.

use crate::check::ColdView;
use crate::corpus::{Kind, Role, Workload};
use crate::serve::{build_server, Phase, Setup};
use crate::stats::{fnv, median, Metrics};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::time::Instant;
use xmlsec_authz::{Action, Authorization, PolicyConfig};
use xmlsec_core::update::{apply_updates, apply_updates_preauthorized, WriteContext};
use xmlsec_core::view::{label_document_engine, label_document_incremental, prune_document};
use xmlsec_core::{
    classify_batch, policy_fingerprint, schema_hash, BatchVerdict, CompiledCache, DecisionCache,
    EngineOptions, Labeling, ResourceLimits,
};
use xmlsec_dtd::{loosen, normalize, parse_dtd, serialize_dtd, Validator};
use xmlsec_server::repo::ParsedDocument;
use xmlsec_server::{parse_update_ops, ClientRequest, ConditionalOutcome, Repository};
use xmlsec_xml::{parse, serialize, SerializeOptions};

/// Cold operations and write rounds the stage view replays.
const STAGE_COLD_OPS: usize = 60;
const STAGE_WRITE_ROUNDS: usize = 30;

struct Span {
    name: &'static str,
    /// Document and requester class, on spans that open an operation.
    label: Option<String>,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: usize,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> usize {
        let start_ns = self.now();
        self.spans
            .push(Span { name, label: None, start_ns, end_ns: start_ns, parent, op });
        self.spans.len() - 1
    }

    fn labelled(&mut self, name: &'static str, op: usize, label: String) -> usize {
        let id = self.open(name, None, op);
        self.spans[id].label = Some(label);
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a leaf span.
    fn leaf<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let op = self.spans[parent].op;
        let id = self.open(name, Some(parent), op);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Median self time (duration minus the time its children cover)
    /// per span name, in ms.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            by.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        by.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let label = s.label.as_ref().map_or("null".to_string(), |l| format!("\"{l}\""));
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"label\": {label}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        f.flush()
    }
}

fn label(w: &Workload, doc: usize, class: usize) -> String {
    format!("{} {}", w.docs[doc].uri, w.domain.classes()[class].name)
}

fn client_request(w: &Workload, doc: usize, class: usize) -> ClientRequest {
    let c = &w.domain.classes()[class];
    ClientRequest {
        user: c.user.map(|u| (u.to_string(), crate::client::secret(u))),
        ip: c.ip.to_string(),
        sym: c.host.to_string(),
        uri: w.docs[doc].uri.clone(),
    }
}

/// Runs the traced replay and returns the per-layer metrics plus any
/// replayed outcome that disagreed with the untraced phase.
pub fn per_layer(
    s: Setup,
    phase: &Phase,
    cold: &[ColdView],
    args: &crate::Args,
) -> Result<(Metrics, Vec<String>), String> {
    let Setup { workload: w, write_text, demo, client, .. } = s;
    drop(client);
    drop(demo);
    let mut bad = Vec::new();
    let mut t = Tracer { epoch: Instant::now(), spans: Vec::new() };
    let texts: Vec<String> = w.docs.iter().map(|d| d.render(w.domain)).collect();

    // Server view: a fresh server, warmed like the served one, replays
    // every executed operation in order.
    let server = build_server(&w, &texts);
    let mut tags: HashMap<(usize, usize), String> = HashMap::new();
    for i in (0..w.docs.len()).filter(|&i| w.docs[i].role != Role::Cold) {
        for c in 0..w.domain.classes().len() {
            let r = server.handle(&client_request(&w, i, c)).map_err(|e| e.to_string())?;
            tags.insert((i, c), r.etag);
        }
    }
    for (n, rec) in phase.records.iter().enumerate() {
        let op = &rec.op;
        let req = client_request(&w, op.doc, op.class);
        let pair = (op.doc, op.class);
        let name = match op.kind {
            Kind::ViewCold => "server.handle_cold",
            Kind::ViewWarm => "server.handle_warm",
            Kind::Revalidate => "server.revalidate",
            Kind::ReadAfterUpdate => "server.read_after_update",
            Kind::Query => "server.query",
            Kind::Update => "server.update",
            Kind::UpdateDenied => "server.update_denied",
        };
        let id = t.labelled(name, n, label(&w, op.doc, op.class));
        let agreed = match op.kind {
            Kind::Query => {
                let q = w.domain.queries()[op.query.expect("query op")];
                server.query(&req, q).is_ok()
            }
            Kind::Update | Kind::UpdateDenied => {
                let body = op.edit.as_ref().expect("edit").body();
                let ops = parse_update_ops(&body)?;
                server.update(&req, &ops).is_ok() == (op.kind == Kind::Update)
            }
            _ => {
                let inm = match op.kind {
                    Kind::Revalidate | Kind::ReadAfterUpdate => tags.get(&pair).cloned(),
                    _ => None,
                };
                match server.handle_conditional(&req, inm.as_deref()) {
                    Ok(ConditionalOutcome::Full(r)) if op.kind != Kind::Revalidate => {
                        tags.insert(pair, r.etag);
                        true
                    }
                    Ok(ConditionalOutcome::NotModified { .. }) => op.kind == Kind::Revalidate,
                    _ => false,
                }
            }
        };
        t.close(id);
        if !agreed && !rec.failed() {
            bad.push(format!("traced replay: {:?} on {} disagrees", op.kind, req.uri));
        }
    }
    // Warm queries: one per class on the largest hot document, whose
    // views are already in the cache.
    let n0 = phase.records.len();
    let largest = w.script.hot.iter().map(|&(d, _)| d).max_by_key(|&d| w.docs[d].units);
    let warm_pairs = w.script.hot.iter().filter(|&&(d, _)| Some(d) == largest);
    for (i, &(doc, class)) in warm_pairs.enumerate() {
        let req = client_request(&w, doc, class);
        let q = w.domain.queries()[0];
        let id = t.labelled("server.query_warm", n0 + i, label(&w, doc, class));
        let ok = server.query(&req, q).is_ok();
        t.close(id);
        let view = server.handle(&req).map_err(|e| e.to_string())?.xml;
        let root = t.labelled("op.query_warm", n0 + i, label(&w, doc, class));
        let v = t
            .leaf("warm_query.parse_view", root, || parse(&view))
            .map_err(|e| e.to_string())?;
        let path = xmlsec_xpath::parse_path(q).map_err(|e| e.to_string())?;
        t.leaf("warm_query.select", root, || xmlsec_xpath::select(&v, &path));
        t.close(root);
        if !ok {
            bad.push(format!("traced replay: warm query on {} failed", req.uri));
        }
    }
    drop(server);

    // Stage view, cold path: the processor's stages on the stored bytes.
    let dtd_text = w.domain.dtd_text();
    let dtd_uri = w.domain.dtd_uri();
    let policy = PolicyConfig::paper_default();
    let limits = ResourceLimits::default();
    let compiled = CompiledCache::new();
    let decisions = DecisionCache::new();
    let cold_ops = phase
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.op.kind, Kind::ViewCold | Kind::Query))
        .take(STAGE_COLD_OPS);
    for (n, rec) in cold_ops {
        let op = &rec.op;
        let root = t.labelled("op.cold", n, label(&w, op.doc, op.class));
        let mut doc =
            t.leaf("xml.parse", root, || parse(&texts[op.doc])).map_err(|e| e.to_string())?;
        let dtd = t.leaf("dtd.parse", root, || parse_dtd(dtd_text)).map_err(|e| e.to_string())?;
        t.leaf("dtd.normalize", root, || normalize(&dtd, &mut doc));
        let valid = t.leaf("dtd.validate", root, || Validator::new(&dtd).validate(&doc).is_empty());
        let rq = w.domain.classes()[op.class].requester();
        let (axml, adtd) = t.leaf("authz.applicable_read", root, || {
            (
                w.base.applicable_for_action(&w.docs[op.doc].uri, &rq, &w.dir, Action::Read),
                w.base.applicable_for_action(dtd_uri, &rq, &w.dir, Action::Read),
            )
        });
        let root_name = doc.element_name(doc.root()).unwrap_or_default().to_string();
        let hit = t.leaf("compile.lookup", root, || {
            compiled.get(
                policy_fingerprint(&axml, &adtd, &w.dir, policy),
                schema_hash(&dtd, &root_name),
            )
        });
        let cp = match hit {
            Some(cp) => Some(cp),
            None if valid => {
                let built = t.leaf("compile.build", root, || {
                    xmlsec_core::compile(&dtd, &root_name, &axml, &adtd, &w.dir, policy)
                });
                built.ok().map(|cp| {
                    let cp = std::sync::Arc::new(cp);
                    compiled.put(schema_hash(&dtd, &root_name), std::sync::Arc::clone(&cp));
                    cp
                })
            }
            None => None,
        };
        let engine = EngineOptions {
            limits: limits.xpath,
            parallelism: xmlsec_core::Parallelism::sequential(),
            decisions: Some(&decisions),
            compiled: cp.as_deref(),
            cancel: None,
        };
        let labeling = t
            .leaf("view.label", root, || {
                label_document_engine(&doc, &axml, &adtd, &w.dir, policy, &engine)
            })
            .map_err(|e| e.to_string())?;
        let mut view = t.leaf("xml.clone", root, || doc.clone());
        t.leaf("view.prune", root, || prune_document(&mut view, &labeling, policy));
        t.leaf("dtd.loosen", root, || serialize_dtd(&loosen(&dtd)));
        let xml =
            t.leaf("xml.serialize", root, || serialize(&view, &SerializeOptions::canonical()));
        if let Some(q) = op.query {
            let v = t.leaf("xml.parse_view", root, || parse(&xml)).map_err(|e| e.to_string())?;
            let path =
                xmlsec_xpath::parse_path(w.domain.queries()[q]).map_err(|e| e.to_string())?;
            t.leaf("xpath.select", root, || xmlsec_xpath::select(&v, &path));
        }
        t.close(root);
    }

    // Stage view, hot path: the request probe's authorization lookup.
    let mut applicable_count = Vec::new();
    for (n, rec) in phase.records.iter().enumerate().filter(|(_, r)| {
        matches!(r.op.kind, Kind::ViewWarm | Kind::Revalidate) && w.docs[r.op.doc].role == Role::Hot
    }) {
        let rq = w.domain.classes()[rec.op.class].requester();
        let root = t.open("op.hot", None, n);
        let count = t.leaf("authz.applicable", root, || {
            w.base.applicable(&w.docs[rec.op.doc].uri, &rq, &w.dir).len()
                + w.base.applicable(dtd_uri, &rq, &w.dir).len()
        });
        t.close(root);
        applicable_count.push(count as f64);
    }

    // Stage view, write path: a repository replica of the written
    // document takes each replayed batch through the commit path.
    let wd = w.write_doc();
    let uri = w.docs[wd].uri.clone();
    let dtd = parse_dtd(dtd_text).map_err(|e| e.to_string())?;
    let mut repo = Repository::new();
    repo.put_dtd(dtd_uri, dtd_text);
    repo.put_document(&uri, &write_text, Some(dtd_uri));
    let mut doc = parse(&write_text).map_err(|e| e.to_string())?;
    normalize(&dtd, &mut doc);
    repo.store_parsed(&uri, ParsedDocument::new(doc));
    let classes = w.domain.classes().len();
    let mut prev: Vec<Option<Labeling>> = (0..classes).map(|_| None).collect();
    let mut rounds = HashSet::new();
    for (n, rec) in phase.records.iter().enumerate() {
        let op = &rec.op;
        if !matches!(op.kind, Kind::Update | Kind::UpdateDenied) || rec.failed() {
            continue;
        }
        rounds.insert(op.round);
        if rounds.len() > STAGE_WRITE_ROUNDS {
            break;
        }
        let root = t.labelled("op.write", n, label(&w, op.doc, op.class));
        let rq = w.domain.classes()[op.class].requester();
        let wxml = w.base.applicable_for_action(&uri, &rq, &w.dir, Action::Write);
        let wdtd = w.base.applicable_for_action(dtd_uri, &rq, &w.dir, Action::Write);
        let ops = parse_update_ops(&op.edit.as_ref().expect("edit").body())?;
        let root_name = w.domain.root_element();
        let cp = t
            .leaf("compile.write_lookup", root, || {
                compiled.get_or_compile(&dtd, root_name, &wxml, &wdtd, &w.dir, policy)
            })
            .map_err(|e| e.to_string())?;
        let verdict = t.leaf("update.classify", root, || classify_batch(&dtd, &cp.writes, &ops));
        if op.kind == Kind::UpdateDenied {
            if !matches!(verdict, BatchVerdict::Deny { .. }) {
                bad.push("traced replay: a denied batch passed the static pre-flight".into());
            }
            t.close(root);
            continue;
        }
        let parsed = repo.parsed_document(&uri).expect("stored above").doc();
        let mut work = t.leaf("repo.clone", root, || parsed.clone());
        let ctx = WriteContext {
            axml: &wxml,
            adtd: &wdtd,
            dir: &w.dir,
            policy,
            opts: EngineOptions::sequential(limits.xpath),
        };
        let outcome = t
            .leaf("update.apply", root, || match verdict {
                BatchVerdict::Allow => apply_updates_preauthorized(&mut work, &ops, None),
                _ => apply_updates(&mut work, &ops, &ctx),
            })
            .map_err(|e| e.to_string())?;
        t.leaf("update.normalize", root, || normalize(&dtd, &mut work));
        t.leaf("update.validate", root, || Validator::new(&dtd).validate(&work).len());
        t.leaf("repo.commit", root, || repo.commit_update(&uri, work, &outcome.dirty));
        let doc = repo.parsed_document(&uri).expect("committed").doc();
        for (c, slot) in prev.iter_mut().enumerate() {
            let rq = w.domain.classes()[c].requester();
            let axml = w.base.applicable_for_action(&uri, &rq, &w.dir, Action::Read);
            let adtd: Vec<&Authorization> =
                w.base.applicable_for_action(dtd_uri, &rq, &w.dir, Action::Read);
            let opts = EngineOptions::sequential(limits.xpath);
            // For comparison: a compiled full label of the same revision.
            if let Ok(cp) = compiled.get_or_compile(&dtd, root_name, &axml, &adtd, &w.dir, policy) {
                let full =
                    EngineOptions { compiled: Some(&cp), decisions: Some(&decisions), ..opts };
                t.leaf("view.label_full", root, || {
                    label_document_engine(doc, &axml, &adtd, &w.dir, policy, &full)
                })
                .map_err(|e| e.to_string())?;
            }
            let labeling = t
                .leaf("view.label_incremental", root, || {
                    label_document_incremental(
                        doc,
                        &axml,
                        &adtd,
                        &w.dir,
                        policy,
                        &opts,
                        slot.as_ref(),
                    )
                })
                .map_err(|e| e.to_string())?;
            let mut view = t.leaf("view.patch_clone", root, || doc.clone());
            t.leaf("view.patch_prune", root, || prune_document(&mut view, &labeling, policy));
            t.leaf("view.patch_serialize", root, || {
                fnv(serialize(&view, &SerializeOptions::canonical()).as_bytes())
            });
            *slot = Some(labeling);
        }
        t.close(root);
    }

    let path = std::path::PathBuf::from(format!(
        "servebench/out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    t.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("servebench: {} spans written to {}", t.spans.len(), path.display());

    findings(&t, &w, &texts, cold);
    let distinct = cold.iter().map(|c| c.hash).collect::<HashSet<_>>().len();
    Ok((assemble(&t, phase, distinct, &applicable_count), bad))
}

/// Prints the wastes the traced run shows, each with what it costs.
fn findings(t: &Tracer, w: &Workload, texts: &[String], cold: &[ColdView]) {
    let op_ms: HashMap<usize, f64> = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("server."))
        .map(|s| (s.op, (s.end_ns - s.start_ns) as f64 / 1e6))
        .collect();
    let mut by_doc: BTreeMap<usize, Vec<&ColdView>> = BTreeMap::new();
    for c in cold {
        by_doc.entry(c.doc).or_default().push(c);
    }
    let shared = cold
        .iter()
        .filter(|c| by_doc[&c.doc].iter().any(|o| o.class != c.class && o.hash == c.hash))
        .count();
    eprintln!(
        "servebench: finding: {shared} of {} cold pairs computed a view byte-identical to \
         another class's view of the same document",
        cold.len()
    );
    let bare: Vec<&ColdView> = cold.iter().filter(|c| c.bare).collect();
    let bare_ms: Vec<f64> = bare.iter().filter_map(|c| op_ms.get(&c.op).copied()).collect();
    if let Some(big) = bare.iter().max_by_key(|c| texts[c.doc].len()) {
        eprintln!(
            "servebench: finding: {} of {} cold pairs have no applicable read authorization; \
             they still take {:.2} ms (median) in SecureServer, {:.2} ms for the {} B {} \
             (view: the bare root)",
            bare.len(),
            cold.len(),
            median(&bare_ms),
            op_ms.get(&big.op).copied().unwrap_or(f64::NAN),
            texts[big.doc].len(),
            w.docs[big.doc].uri
        );
    }
    let self_ms = t.self_ms();
    let ms = |n: &str| self_ms.get(n).copied().unwrap_or(f64::NAN);
    eprintln!(
        "servebench: finding: on the {} B written document an incremental relabel per patched \
         view takes {:.2} ms (median), a compiled full label of the same revision {:.2} ms",
        texts[w.write_doc()].len(),
        ms("view.label_incremental"),
        ms("view.label_full")
    );
    eprintln!(
        "servebench: finding: on the largest hot document a warm query takes {:.2} ms \
         (median over classes), of which re-parsing the served view is {:.2} ms and select \
         {:.2} ms",
        ms("server.query_warm"),
        ms("warm_query.parse_view"),
        ms("warm_query.select")
    );
}

/// The per-layer table: stage and server self times, plus counts from
/// the untraced phase's `/metrics` deltas.
fn assemble(
    t: &Tracer,
    phase: &Phase,
    distinct_cold_views: usize,
    applicable_count: &[f64],
) -> Metrics {
    let self_ms = t.self_ms();
    let ms = |name: &str| self_ms.get(name).copied().unwrap_or(f64::NAN);
    let (a, b) = (&phase.after, &phase.before);
    let d = |name: &str, labels: &[&str]| a.delta(b, name, labels);
    let ops = phase.records.len() as f64;
    let updates = phase.ok(Kind::Update).len() as f64;
    let batches = updates + phase.ok(Kind::UpdateDenied).len() as f64;
    let e2e = |k: Kind| median(&phase.ok(k));
    let runs = d("xmlsec_pipeline_runs_total", &[]);
    let hits = d("xmlsec_view_cache_hits_total", &[]);
    let misses = d("xmlsec_view_cache_misses_total", &[]);
    let wire: usize = phase.records.iter().map(|r| r.wire_bytes).sum();
    let verdict = |v: &str| {
        let label = format!("verdict=\"{v}\"");
        d("xmlsec_update_static_verdicts_total", &[label.as_str()]) / batches
    };
    vec![
        ("epoll.overhead_cold_ms".into(), e2e(Kind::ViewCold) - ms("server.handle_cold"), "ms"),
        ("epoll.overhead_warm_ms".into(), e2e(Kind::ViewWarm) - ms("server.handle_warm"), "ms"),
        (
            "epoll.queue_wait_ms".into(),
            d("xmlsec_server_queue_sojourn_seconds_sum", &[]) * 1e3
                / d("xmlsec_server_queue_sojourn_seconds_count", &[]),
            "ms",
        ),
        ("epoll.bytes_out_per_op".into(), wire as f64 / ops, "B"),
        ("server.handle_cold_ms".into(), ms("server.handle_cold"), "ms"),
        ("server.query_ms".into(), ms("server.query"), "ms"),
        ("server.handle_warm_ms".into(), ms("server.handle_warm"), "ms"),
        ("server.revalidate_ms".into(), ms("server.revalidate"), "ms"),
        ("server.update_ms".into(), ms("server.update"), "ms"),
        ("server.update_denied_ms".into(), ms("server.update_denied"), "ms"),
        ("cache.pipeline_runs_per_op".into(), runs / ops, "count"),
        // Distinct view bytes among the cold pairs, over pipeline runs.
        ("cache.useful_run_ratio".into(), distinct_cold_views as f64 / runs, "ratio"),
        ("cache.hit_ratio".into(), hits / (hits + misses), "ratio"),
        ("cache.entries".into(), a.sum("xmlsec_view_cache_entries", &[]), "count"),
        (
            "cache.patched_per_update".into(),
            d("xmlsec_view_patches_total", &["result=\"patched\""]) / updates,
            "count",
        ),
        (
            "cache.dropped_per_update".into(),
            d("xmlsec_view_patches_total", &["result=\"dropped\""]) / updates,
            "count",
        ),
        ("repo.commit_ms".into(), ms("repo.commit"), "ms"),
        ("xml.parse_ms".into(), ms("xml.parse"), "ms"),
        ("xml.serialize_ms".into(), ms("xml.serialize"), "ms"),
        ("xml.clone_ms".into(), ms("xml.clone"), "ms"),
        ("xml.parse_view_ms".into(), ms("xml.parse_view"), "ms"),
        ("xml.parse_bytes_per_op".into(), d("xmlsec_xml_parse_bytes_total", &[]) / ops, "B"),
        ("dtd.normalize_ms".into(), ms("dtd.normalize"), "ms"),
        ("dtd.validate_ms".into(), ms("dtd.validate"), "ms"),
        ("dtd.loosen_ms".into(), ms("dtd.loosen"), "ms"),
        ("authz.applicable_ms".into(), ms("authz.applicable"), "ms"),
        ("authz.applicable_count".into(), median(applicable_count), "count"),
        ("compile.lookup_ms".into(), ms("compile.lookup"), "ms"),
        ("compile.build_ms".into(), ms("compile.build"), "ms"),
        ("view.label_ms".into(), ms("view.label"), "ms"),
        ("view.prune_ms".into(), ms("view.prune"), "ms"),
        ("view.label_incremental_ms".into(), ms("view.label_incremental"), "ms"),
        (
            "view.relabel_nodes_per_update".into(),
            d("xmlsec_relabel_nodes_total", &["kind=\"resolved\""]) / updates,
            "count",
        ),
        ("xpath.select_ms".into(), ms("xpath.select"), "ms"),
        (
            "xpath.node_visits_per_op".into(),
            d("xmlsec_xpath_node_visits_total", &[]) / ops,
            "count",
        ),
        ("update.classify_ms".into(), ms("update.classify"), "ms"),
        ("update.apply_ms".into(), ms("update.apply"), "ms"),
        ("update.static_verdicts.allow".into(), verdict("allow"), "share"),
        ("update.static_verdicts.deny".into(), verdict("deny"), "share"),
        ("update.static_verdicts.dynamic".into(), verdict("dynamic"), "share"),
    ]
}
