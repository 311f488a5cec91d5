//! `hpd-cli`: a small SQL REPL over an in-process engine.
//!
//! Interactive: prompts on a terminal, reads statements terminated by `;`
//! (statements may span lines). Piped: same grammar, no prompt, suitable
//! for `hpd-cli < script.sql` smoke tests.

use std::io::{BufRead, IsTerminal, Write};

use hpd_engine::{Database, DbConfig};
use hpd_sql::{partitions_report, SqlOutput, SqlSession};

fn main() {
    let mut quiet = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "hpd-cli: SQL REPL over an in-process hybrid-physical-designs engine\n\
                     usage: hpd-cli [--quiet]\n\
                     Statements end with ';'. Try: CREATE TABLE t (k INT PRIMARY KEY, v INT);\n\
                     Meta-commands (one per line, no ';'):\n\
                       \\heat                      rowgroup heat / backlog per columnstore index\n\
                       \\maintain <table> [rows]   run maintenance (optionally one budgeted increment)\n\
                       \\partitions <table>        per-partition physical design, row counts, heat"
                );
                return;
            }
            other => {
                eprintln!("unknown flag '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    let db = Database::new(DbConfig::default());
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let interactive = stdin.is_terminal();
    if interactive && !quiet {
        println!("hpd-cli — statements end with ';', Ctrl-D quits");
    }
    let mut session = SqlSession::new(&db);
    let mut out = stdout.lock();
    let mut pending = String::new();
    loop {
        if interactive && !quiet {
            print!(
                "{}",
                if pending.trim().is_empty() {
                    "hpd> "
                } else {
                    "...> "
                }
            );
            out.flush().expect("stdout flush failed");
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin read failed: {e}");
                std::process::exit(1);
            }
        }
        // Meta-commands: one per line, intercepted before SQL accumulation
        // (only when no statement is pending, so a `\` inside a string
        // literal spanning lines is never misread as a command).
        if pending.trim().is_empty() && line.trim_start().starts_with('\\') {
            run_meta(&db, line.trim(), &mut out);
            continue;
        }
        pending.push_str(&line);
        if !line.trim_end().ends_with(';') {
            continue;
        }
        let script = std::mem::take(&mut pending);
        run_script(&mut session, &script, &mut out);
    }
    if !pending.trim().is_empty() {
        run_script(&mut session, &pending, &mut out);
    }
}

/// `\heat` and `\maintain <table> [budget]`: operational peepholes into the
/// columnstore maintenance machinery, psql-style.
fn run_meta(db: &Database, line: &str, out: &mut impl Write) {
    let mut words = line.split_whitespace();
    let r: std::io::Result<()> = (|| {
        match words.next() {
            Some("\\heat") => {
                let reports = db.heat_report();
                if reports.is_empty() {
                    writeln!(out, "(no columnstore indexes)")?;
                }
                for (table, index, rep) in reports {
                    writeln!(
                        out,
                        "{table} ({index} csi): delta_writes={} delta_reads={} decay_passes={}",
                        rep.delta_writes, rep.delta_reads, rep.decay_passes
                    )?;
                    for rg in &rep.rowgroups {
                        writeln!(
                            out,
                            "  rg{:<3} rows={}/{} reads={} prunes={} writes={} score={}",
                            rg.rowgroup,
                            rg.active_rows,
                            rg.rows,
                            rg.reads,
                            rg.prunes,
                            rg.writes,
                            rg.score()
                        )?;
                    }
                }
            }
            Some("\\maintain") => {
                let Some(table) = words.next() else {
                    writeln!(out, "ERR: usage: \\maintain <table> [budget_rows]")?;
                    return Ok(());
                };
                let budget = match words.next().map(str::parse::<usize>) {
                    None => None,
                    Some(Ok(n)) => Some(n),
                    Some(Err(e)) => {
                        writeln!(out, "ERR: bad budget: {e}")?;
                        return Ok(());
                    }
                };
                let mut b = db.maintenance(table);
                if let Some(n) = budget {
                    b = b.budget_rows(n);
                }
                match b.run() {
                    Err(e) => writeln!(out, "ERR: {e}")?,
                    Ok(r) => writeln!(
                        out,
                        "OK MAINTAIN {}: moved={} deletes_compacted={} pending_delta={} \
                         pending_deletes={} complete={}",
                        r.table,
                        r.rows_moved,
                        r.deletes_compacted,
                        r.delta_rows,
                        r.delete_buffer,
                        r.complete
                    )?,
                }
            }
            Some("\\partitions") => {
                let Some(table) = words.next() else {
                    writeln!(out, "ERR: usage: \\partitions <table>")?;
                    return Ok(());
                };
                match partitions_report(db, table) {
                    Err(e) => writeln!(out, "ERR: {e}")?,
                    Ok(report) => write!(out, "{report}")?,
                }
            }
            Some(other) => writeln!(
                out,
                "ERR: unknown meta-command {other} (try \\heat, \\maintain <table> [budget], \
                 or \\partitions <table>)"
            )?,
            None => {}
        }
        Ok(())
    })();
    r.expect("stdout write failed");
}

fn run_script(session: &mut SqlSession<'_>, script: &str, out: &mut impl Write) {
    match session.execute(script) {
        Err(e) => writeln!(out, "ERR: {e}").expect("stdout write failed"),
        Ok(outputs) => {
            for o in outputs {
                print_output(&o, out);
            }
        }
    }
}

fn print_output(o: &SqlOutput, out: &mut impl Write) {
    let r: std::io::Result<()> = (|| {
        match o {
            SqlOutput::Rows { columns, rows } => {
                writeln!(out, "{}", columns.join(" | "))?;
                for row in rows {
                    let vals: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
                    writeln!(out, "{}", vals.join(" | "))?;
                }
                writeln!(out, "({} rows)", rows.len())?;
            }
            SqlOutput::Affected(n) => writeln!(out, "OK ({n} affected)")?,
            SqlOutput::Command(c) => writeln!(out, "OK {c}")?,
        }
        Ok(())
    })();
    r.expect("stdout write failed");
}
