//! The three workloads. Each one is set up from the seed, serves requests
//! through the public `OrchestratorService` API, and checks every output
//! against an independently produced reference after the timed phase.

use crate::trace::{Backend, Recorder};
use std::path::{Path, PathBuf};
use std::time::Instant;
use xaas::prelude::*;
use xaas_apps::{gromacs, llamacpp, lulesh};
use xaas_buildsys::{OptionAssignment, ProjectSpec};
use xaas_hpcsim::{SimdLevel, SystemModel};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["deploy-warm", "edit-redeploy", "restart-replay"];

/// SplitMix64: small, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    /// The generator for request `seq` of `client`: independent of how the
    /// clients interleave, so a seed fixes every request's inputs.
    fn for_request(seed: u64, client: usize, seq: u64) -> Self {
        let mut rng = Rng(seed);
        let salt = rng.next() ^ (client as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        Rng(salt ^ seq.wrapping_mul(0x9FB2_1C65_1E98_DF25))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What one request produced, kept until the checks after the timed phase.
pub enum Output {
    /// Images of distinct request `distinct` of the deploy-warm mix.
    Warm { distinct: usize, images: Vec<Image> },
    /// The IR build image, then the deployed image, of edit `(client, seq)`.
    Edit {
        client: usize,
        seq: u64,
        images: Vec<Image>,
    },
    /// The replayed build and fleet images, and the replay's cache misses.
    Replay { images: Vec<Image>, misses: u64 },
}

/// One completed request.
pub struct Done {
    /// Wall time of the request, in microseconds.
    pub latency_us: f64,
    pub result: Result<Output, String>,
}

/// A set-up workload, shared by its client threads.
pub trait Workload: Sync {
    /// Closed-loop client threads driving the timed phase.
    fn clients(&self) -> usize;
    /// Serve request `seq` of `client`, timing only the request itself.
    fn run(&self, client: usize, seq: u64, rec: &mut Recorder) -> Done;
    /// Check one output against its reference.
    fn check(&self, output: &Output) -> Result<(), String>;
    /// A fingerprint of the inputs the first `count` requests of client 0
    /// carry under `seed`; `None` when the workload generates no inputs.
    fn input_fingerprint(&self, seed: u64, count: u64) -> Option<String>;
}

/// Run directories kept under `.perfbench-scratch/`; a new run removes the
/// oldest ones beyond this.
const KEPT_RUNS: usize = 64;

/// This run's directory under `.perfbench-scratch/` in the working
/// directory. It is kept when the run ends: removing thousands of freshly
/// written files slows file creation on some file systems for up to a
/// minute, which would slow the set-ups of whichever runs follow. Names
/// start with the creation time, so they sort oldest first.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Result<Self, String> {
        let parent = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".perfbench-scratch");
        let since_epoch = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default();
        let dir = parent.join(format!(
            "{:020}-{}-{label}",
            since_epoch.as_nanos(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut kept: Vec<PathBuf> = std::fs::read_dir(&parent)
            .map_err(|e| format!("{}: {e}", parent.display()))?
            .filter_map(|entry| entry.ok().map(|entry| entry.path()))
            .collect();
        kept.sort();
        for old in kept.iter().take(kept.len().saturating_sub(KEPT_RUNS)) {
            let _ = std::fs::remove_dir_all(old);
        }
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

/// The production configuration: `workers` engine workers, weighted-fair
/// scheduling, and a memory L1 over a disk tier rooted at `disk_root`.
fn service(disk_root: &Path, workers: usize) -> Result<OrchestratorService, String> {
    OrchestratorService::builder()
        .workers(workers)
        .policy(WeightedFair::new())
        .cache_tiers(TierConfig::new().disk_root(disk_root))
        .try_build()
        .map_err(|e| format!("service over {}: {e}", disk_root.display()))
}

fn sessions(service: &OrchestratorService, clients: usize) -> Vec<Session> {
    (0..clients)
        .map(|client| service.session(format!("client{client}")))
        .collect()
}

fn gmx(simd: SimdLevel) -> OptionAssignment {
    OptionAssignment::new().with("GMX_SIMD", simd.gmx_name())
}

fn lulesh_selection(mpi: bool, omp: bool) -> OptionAssignment {
    let on = |flag: bool| if flag { "ON" } else { "OFF" };
    OptionAssignment::new()
        .with("WITH_MPI", on(mpi))
        .with("WITH_OPENMP", on(omp))
}

fn lulesh_config(project: &ProjectSpec) -> IrPipelineConfig {
    IrPipelineConfig::sweep_options(project, &["WITH_MPI", "WITH_OPENMP"])
}

fn gromacs_config(project: &ProjectSpec, levels: &[&str]) -> IrPipelineConfig {
    IrPipelineConfig::sweep_options(project, &["GMX_SIMD"]).with_values("GMX_SIMD", levels)
}

/// The IR deploy targets of the two projects: GROMACS on an AVX-512, an
/// AVX2 and a second AVX-512 system; LULESH across MPI × OpenMP on ault23.
fn gromacs_targets() -> Vec<FleetTarget> {
    vec![
        FleetTarget::new(
            SystemModel::ault23(),
            gmx(SimdLevel::Avx512),
            SimdLevel::Avx512,
        ),
        FleetTarget::new(
            SystemModel::ault25(),
            gmx(SimdLevel::Avx2_256),
            SimdLevel::Avx2_256,
        ),
        FleetTarget::new(
            SystemModel::ault01_04(),
            gmx(SimdLevel::Avx512),
            SimdLevel::Avx512,
        ),
    ]
}

fn lulesh_targets() -> Vec<FleetTarget> {
    let mut targets = Vec::new();
    for mpi in [false, true] {
        for omp in [false, true] {
            let system = SystemModel::ault23();
            let simd = system.cpu.best_simd();
            targets.push(FleetTarget::new(system, lulesh_selection(mpi, omp), simd));
        }
    }
    targets
}

fn deploy_request<'a>(
    build: &'a IrContainerBuild,
    project: &'a ProjectSpec,
    target: &'a FleetTarget,
) -> IrDeployRequest<'a> {
    IrDeployRequest::new(build, project, &target.system)
        .selection(target.selection.clone())
        .simd(target.simd)
}

fn mismatch(what: &str) -> String {
    format!("{what} differs from its reference")
}

/// Submit an IR build of `project` through `session` as a span of request
/// `id`, and fold its trace into the recorder. The deploy and fleet helpers
/// below do the same for their requests.
fn submit_build(
    session: &Session,
    project: &ProjectSpec,
    config: &IrPipelineConfig,
    id: u64,
    rec: &mut Recorder,
) -> Result<IrContainerBuild, String> {
    let build = rec
        .span(id, "service.submit.ir-build", || {
            session.submit(IrBuildRequest::new(project, config))
        })
        .map_err(|e| format!("IR build of {}: {e}", project.name))?;
    rec.fold_trace(id, &build.trace);
    Ok(build)
}

fn submit_deploy(
    session: &Session,
    request: IrDeployRequest<'_>,
    id: u64,
    rec: &mut Recorder,
) -> Result<Image, String> {
    let deploy = rec
        .span(id, "service.submit.ir-deploy", || session.submit(request))
        .map_err(|e| format!("IR deploy: {e}"))?;
    rec.fold_trace(id, &deploy.trace);
    Ok(deploy.image)
}

fn submit_fleet(
    session: &Session,
    request: FleetRequest<'_>,
    id: u64,
    rec: &mut Recorder,
) -> Result<(Vec<Image>, u64), String> {
    let report = rec
        .span(id, "service.submit.fleet", || session.submit_fleet(request))
        .map_err(|e| format!("fleet wave: {e}"))?;
    rec.fold_trace(id, &report.trace);
    if let Some(failed) = report
        .outcomes
        .iter()
        .find_map(|o| o.deployment.as_ref().err())
    {
        return Err(format!("fleet wave: {failed}"));
    }
    let images = report.deployments().map(|d| d.image.clone()).collect();
    Ok((images, report.trace.cache_delta().misses))
}

/// Time `call` as request `id`: a root `request` span and the request's
/// latency.
fn timed(
    id: u64,
    rec: &mut Recorder,
    call: impl FnOnce(&mut Recorder) -> Result<Output, String>,
) -> Done {
    let started = Instant::now();
    let root = rec.begin(id, "request");
    let result = call(rec);
    rec.end(root);
    rec.requests += 1;
    Done {
        latency_us: started.elapsed().as_secs_f64() * 1e6,
        result,
    }
}

/// Run `call` on `service`, folding the backend counters it moved when the
/// recorder counts.
fn counted<T>(
    service: &OrchestratorService,
    rec: &mut Recorder,
    call: impl FnOnce(&mut Recorder) -> T,
) -> T {
    let before = rec.counting().then(|| Backend::read(service));
    let out = call(rec);
    if let Some(before) = before {
        rec.fold_backend(&before, &Backend::read(service));
    }
    out
}

/// In the counter pass, time `analyze` as request `id`'s planning span, on
/// the caller's thread and outside the request's own span; the timed phase
/// never analyzes, so traced and untraced windows do the same work.
/// `analyze` reports whether the analysis ran; a failed one counts in
/// `orchestrator.analyze_failures`.
fn plan(id: u64, rec: &mut Recorder, analyze: impl FnOnce() -> bool) {
    if !rec.counting() {
        return;
    }
    let span = rec.begin(id, "orchestrator.analyze");
    let ok = analyze();
    let us = rec.end(span);
    rec.add("orchestrator.plan_analyze_us", us);
    rec.add("orchestrator.analyze_failures", f64::from(u8::from(!ok)));
}

/// Request id shared by every span of one request.
fn request_id(client: usize, seq: u64) -> u64 {
    ((client as u64) << 48) | seq
}

// ---------------------------------------------------------------------------
// deploy-warm

/// One distinct request of the deploy-warm mix.
enum Warm {
    Gromacs(FleetTarget),
    Lulesh(FleetTarget),
    Fleet(Vec<FleetTarget>),
    /// A llama.cpp source deploy of the source container built for the system.
    Source(Box<(SystemModel, Image)>),
}

struct DeployWarm {
    service: OrchestratorService,
    sessions: Vec<Session>,
    seed: u64,
    gromacs: ProjectSpec,
    gromacs_build: IrContainerBuild,
    lulesh: ProjectSpec,
    lulesh_build: IrContainerBuild,
    llama: ProjectSpec,
    distinct: Vec<Warm>,
    /// Set-up's output for each distinct request.
    expected: Vec<Vec<Image>>,
}

impl DeployWarm {
    fn setup(seed: u64, clients: usize, workers: usize, root: &Path) -> Result<Self, String> {
        let service = service(root, workers)?;
        let sessions = sessions(&service, clients);
        let gromacs = gromacs::project();
        let lulesh = lulesh::project();
        let llama = llamacpp::project();
        let mut off = Recorder::off();
        let gromacs_build = submit_build(
            &sessions[0],
            &gromacs,
            &gromacs_config(&gromacs, &["SSE4.1", "AVX2_256", "AVX_512"]),
            0,
            &mut off,
        )?;
        let lulesh_build =
            submit_build(&sessions[0], &lulesh, &lulesh_config(&lulesh), 0, &mut off)?;
        let gromacs_targets = gromacs_targets();
        let mut distinct: Vec<Warm> = gromacs_targets.iter().cloned().map(Warm::Gromacs).collect();
        distinct.extend(lulesh_targets().into_iter().map(Warm::Lulesh));
        distinct.push(Warm::Fleet(gromacs_targets[..2].to_vec()));
        distinct.push(Warm::Fleet(gromacs_targets[1..].to_vec()));
        for system in [
            SystemModel::ault23(),
            SystemModel::ault25(),
            SystemModel::clariden(),
        ] {
            let image = build_source_container(
                &llama,
                xaas::source_container::architecture_of(&system),
                service.store(),
                &format!(
                    "spcl/mini-llamacpp:src-{}",
                    system.name.to_ascii_lowercase()
                ),
            );
            distinct.push(Warm::Source(Box::new((system, image))));
        }
        let mut fixture = Self {
            service,
            sessions,
            seed,
            gromacs,
            gromacs_build,
            lulesh,
            lulesh_build,
            llama,
            distinct,
            expected: Vec::new(),
        };
        // Serve every distinct request once, so the timed mix finds each
        // keyed node in memory; its outputs are the references.
        for index in 0..fixture.distinct.len() {
            let images = fixture.serve(&fixture.sessions[0], index, 0, &mut off)?;
            fixture.expected.push(images);
        }
        Ok(fixture)
    }

    fn serve(
        &self,
        session: &Session,
        index: usize,
        id: u64,
        rec: &mut Recorder,
    ) -> Result<Vec<Image>, String> {
        Ok(match &self.distinct[index] {
            Warm::Gromacs(target) => vec![submit_deploy(
                session,
                deploy_request(&self.gromacs_build, &self.gromacs, target),
                id,
                rec,
            )?],
            Warm::Lulesh(target) => vec![submit_deploy(
                session,
                deploy_request(&self.lulesh_build, &self.lulesh, target),
                id,
                rec,
            )?],
            Warm::Fleet(targets) => {
                let request = FleetRequest::new(&self.gromacs_build, &self.gromacs)
                    .targets(targets.iter().cloned());
                submit_fleet(session, request, id, rec)?.0
            }
            Warm::Source(source) => {
                let (system, image) = source.as_ref();
                let deploy = rec
                    .span(id, "service.submit.source-deploy", || {
                        session.submit(SourceDeployRequest::new(&self.llama, image, system))
                    })
                    .map_err(|e| format!("source deploy on {}: {e}", system.name))?;
                rec.fold_trace(id, &deploy.trace);
                vec![deploy.image]
            }
        })
    }

    /// Analyze distinct request `index` without running it.
    fn analyze(&self, orch: &Orchestrator, index: usize) -> bool {
        match &self.distinct[index] {
            Warm::Gromacs(target) => deploy_request(&self.gromacs_build, &self.gromacs, target)
                .analyze(orch)
                .is_ok(),
            Warm::Lulesh(target) => deploy_request(&self.lulesh_build, &self.lulesh, target)
                .analyze(orch)
                .is_ok(),
            Warm::Fleet(targets) => FleetRequest::new(&self.gromacs_build, &self.gromacs)
                .targets(targets.iter().cloned())
                .analyze(orch)
                .is_ok(),
            // Source deploys plan on the target; there is no analyze call.
            Warm::Source(..) => true,
        }
    }

    fn pick(&self, seed: u64, client: usize, seq: u64) -> usize {
        Rng::for_request(seed, client, seq).below(self.distinct.len())
    }
}

impl Workload for DeployWarm {
    fn clients(&self) -> usize {
        self.sessions.len()
    }

    fn run(&self, client: usize, seq: u64, rec: &mut Recorder) -> Done {
        let index = self.pick(self.seed, client, seq);
        let id = request_id(client, seq);
        let session = &self.sessions[client];
        plan(id, rec, || self.analyze(session.orchestrator(), index));
        timed(id, rec, |rec| {
            counted(&self.service, rec, |rec| {
                let images = self.serve(session, index, id, rec)?;
                Ok(Output::Warm {
                    distinct: index,
                    images,
                })
            })
        })
    }

    fn check(&self, output: &Output) -> Result<(), String> {
        match output {
            Output::Warm { distinct, images } if *images == self.expected[*distinct] => Ok(()),
            Output::Warm { distinct, .. } => {
                Err(mismatch(&format!("deploy-warm request {distinct}")))
            }
            _ => Err("deploy-warm produced a foreign output".into()),
        }
    }

    fn input_fingerprint(&self, seed: u64, count: u64) -> Option<String> {
        let picks: Vec<String> = (0..count)
            .map(|seq| self.pick(seed, 0, seq).to_string())
            .collect();
        Some(picks.join(","))
    }
}

// ---------------------------------------------------------------------------
// edit-redeploy

/// One project of the edit-redeploy workload, as set-up found it.
struct EditProject {
    project: ProjectSpec,
    config: IrPipelineConfig,
    targets: Vec<FleetTarget>,
}

struct EditRedeploy {
    service: OrchestratorService,
    sessions: Vec<Session>,
    seed: u64,
    projects: [EditProject; 2],
}

/// The one-function edit request `(client, seq)` makes.
struct Edit {
    project: usize,
    file: usize,
    target: usize,
    /// The seeded constant in the appended function's body.
    scale: usize,
    function: String,
}

impl EditRedeploy {
    fn setup(seed: u64, clients: usize, workers: usize, root: &Path) -> Result<Self, String> {
        let service = service(root, workers)?;
        let sessions = sessions(&service, clients);
        let lulesh = lulesh::project();
        let gromacs = gromacs::project();
        let projects = [
            EditProject {
                config: lulesh_config(&lulesh),
                project: lulesh,
                targets: lulesh_targets(),
            },
            EditProject {
                config: gromacs_config(&gromacs, &["SSE4.1", "AVX2_256", "AVX_512"]),
                project: gromacs,
                targets: gromacs_targets(),
            },
        ];
        // Build each unedited project and deploy it to every target, so an
        // edit misses only on the translation unit it touched.
        let mut off = Recorder::off();
        for edit in &projects {
            let build = submit_build(&sessions[0], &edit.project, &edit.config, 0, &mut off)?;
            for target in &edit.targets {
                submit_deploy(
                    &sessions[0],
                    deploy_request(&build, &edit.project, target),
                    0,
                    &mut off,
                )?;
            }
        }
        Ok(Self {
            service,
            sessions,
            seed,
            projects,
        })
    }

    fn edit(&self, seed: u64, client: usize, seq: u64) -> Edit {
        let mut rng = Rng::for_request(seed, client, seq);
        let project = rng.below(self.projects.len());
        let spec = &self.projects[project];
        let file = rng.below(spec.project.sources.len());
        let target = rng.below(spec.targets.len());
        let scale = 1 + rng.below(999);
        let name = format!("bench_edit_{seed:x}_{client}_{seq}");
        let function = format!(
            "\nkernel void {name}(float* a, int n) {{\n    for (int i = 0; i < n; i = i + 1) {{\n        a[i] = a[i] * {scale}.5;\n    }}\n}}\n"
        );
        Edit {
            project,
            file,
            target,
            scale,
            function,
        }
    }

    fn edited(&self, edit: &Edit) -> ProjectSpec {
        let mut project = self.projects[edit.project].project.clone();
        project.sources[edit.file].content.push_str(&edit.function);
        project
    }
}

impl Workload for EditRedeploy {
    fn clients(&self) -> usize {
        self.sessions.len()
    }

    fn run(&self, client: usize, seq: u64, rec: &mut Recorder) -> Done {
        let edit = self.edit(self.seed, client, seq);
        let project = self.edited(&edit);
        let spec = &self.projects[edit.project];
        let target = &spec.targets[edit.target];
        let id = request_id(client, seq);
        let session = &self.sessions[client];
        // The deploy graph depends on the build's output, so only the
        // build's graph can be analyzed before the request starts.
        plan(id, rec, || {
            IrBuildRequest::new(&project, &spec.config)
                .analyze(session.orchestrator())
                .is_ok()
        });
        timed(id, rec, |rec| {
            counted(&self.service, rec, |rec| {
                let build = submit_build(session, &project, &spec.config, id, rec)?;
                let deploy =
                    submit_deploy(session, deploy_request(&build, &project, target), id, rec)?;
                Ok(Output::Edit {
                    client,
                    seq,
                    images: vec![build.image, deploy],
                })
            })
        })
    }

    fn check(&self, output: &Output) -> Result<(), String> {
        let Output::Edit {
            client,
            seq,
            images,
        } = output
        else {
            return Err("edit-redeploy produced a foreign output".into());
        };
        let edit = self.edit(self.seed, *client, *seq);
        let project = self.edited(&edit);
        let spec = &self.projects[edit.project];
        let orch = Orchestrator::uncached(&ImageStore::new());
        let reference = IrBuildRequest::new(&project, &spec.config)
            .submit(&orch)
            .map_err(|e| format!("uncached rebuild: {e}"))?;
        let redeploy = deploy_request(&reference, &project, &spec.targets[edit.target])
            .submit(&orch)
            .map_err(|e| format!("uncached redeploy: {e}"))?;
        if *images != [reference.image, redeploy.image] {
            return Err(mismatch(&format!("edit {client}/{seq}")));
        }
        Ok(())
    }

    fn input_fingerprint(&self, seed: u64, count: u64) -> Option<String> {
        // The seeded choices only: the function's name carries the seed
        // itself, so it would differ between seeds even if they chose alike.
        let edits: Vec<String> = (0..count)
            .map(|seq| {
                let edit = self.edit(seed, 0, seq);
                format!(
                    "{}:{}:{}:{}",
                    edit.project, edit.file, edit.target, edit.scale
                )
            })
            .collect();
        Some(edits.join("|"))
    }
}

// ---------------------------------------------------------------------------
// restart-replay

struct RestartReplay {
    root: PathBuf,
    workers: usize,
    project: ProjectSpec,
    config: IrPipelineConfig,
    targets: Vec<FleetTarget>,
    /// Analysis-only orchestrator: replays are analyzed here, before the
    /// replay's own service exists.
    planner: Orchestrator,
    cold_build: IrContainerBuild,
    /// Cold build image followed by the cold fleet images.
    cold: Vec<Image>,
}

impl RestartReplay {
    fn setup(workers: usize, root: &Path) -> Result<Self, String> {
        let project = gromacs::project();
        let config = gromacs_config(
            &project,
            &["SSE4.1", "AVX2_256", "AVX_512", "ARM_NEON_ASIMD"],
        );
        let targets: Vec<FleetTarget> = [
            SystemModel::ault23(),
            SystemModel::ault25(),
            SystemModel::ault01_04(),
            SystemModel::clariden(),
        ]
        .into_iter()
        .map(|system| {
            let simd = system.cpu.best_simd();
            FleetTarget::new(system, gmx(simd), simd)
        })
        .collect();
        let cold_service = service(root, workers)?;
        let session = cold_service.session("cold");
        let mut off = Recorder::off();
        let cold_build = submit_build(&session, &project, &config, 0, &mut off)?;
        let (fleet, _) = submit_fleet(
            &session,
            FleetRequest::new(&cold_build, &project).targets(targets.iter().cloned()),
            0,
            &mut off,
        )?;
        // Dropping the service leaves only the disk tier under `root`.
        drop(session);
        drop(cold_service);
        let mut cold = vec![cold_build.image.clone()];
        cold.extend(fleet);
        Ok(Self {
            root: root.to_path_buf(),
            workers,
            project,
            config,
            targets,
            planner: Orchestrator::builder()
                .workers(1)
                .policy(WeightedFair::new())
                .build(),
            cold_build,
            cold,
        })
    }
}

impl Workload for RestartReplay {
    fn clients(&self) -> usize {
        1
    }

    fn run(&self, client: usize, seq: u64, rec: &mut Recorder) -> Done {
        let id = request_id(client, seq);
        plan(id, rec, || {
            let build = IrBuildRequest::new(&self.project, &self.config).analyze(&self.planner);
            let fleet = FleetRequest::new(&self.cold_build, &self.project)
                .targets(self.targets.iter().cloned())
                .analyze(&self.planner);
            build.is_ok() && fleet.is_ok()
        });
        timed(id, rec, |rec| {
            let open_span = rec.begin(id, "orchestrator.open");
            let opened = service(&self.root, self.workers);
            let open_us = rec.end(open_span);
            rec.add("orchestrator.open_us", open_us);
            let service = opened?;
            counted(&service, rec, |rec| {
                let session = service.session("replay");
                let build = submit_build(&session, &self.project, &self.config, id, rec)?;
                let (fleet, fleet_misses) = submit_fleet(
                    &session,
                    FleetRequest::new(&build, &self.project).targets(self.targets.iter().cloned()),
                    id,
                    rec,
                )?;
                let misses = build.trace.cache_delta().misses + fleet_misses;
                let mut images = vec![build.image];
                images.extend(fleet);
                Ok(Output::Replay { images, misses })
            })
        })
    }

    fn check(&self, output: &Output) -> Result<(), String> {
        match output {
            Output::Replay { images, misses: 0 } if *images == self.cold => Ok(()),
            Output::Replay { misses: 0, .. } => Err(mismatch("replayed image set")),
            Output::Replay { misses, .. } => Err(format!("replay recomputed {misses} actions")),
            _ => Err("restart-replay produced a foreign output".into()),
        }
    }

    fn input_fingerprint(&self, _seed: u64, _count: u64) -> Option<String> {
        // Every replay repeats set-up's cold build and fleet.
        None
    }
}

/// Set up workload `name` over a fresh disk root under `root`.
pub fn setup(
    name: &str,
    seed: u64,
    clients: usize,
    workers: usize,
    root: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "deploy-warm" => Box::new(DeployWarm::setup(seed, clients, workers, root)?),
        "edit-redeploy" => Box::new(EditRedeploy::setup(seed, clients, workers, root)?),
        "restart-replay" => Box::new(RestartReplay::setup(workers, root)?),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}
