//! Figure 2 — the data-collection environment. Renders the simulated
//! office as an ASCII floor plan: room shell, access point and sniffer,
//! desks/cabinets of the active furniture layout, door and the
//! no-walking strip between the radios. (Figure 1 of the paper is a
//! conceptual WiFi-sensing diagram with no quantitative content to
//! reproduce.)

use occusense_core::channel::scene::Scene;
use occusense_core::sim::mobility::MobilityConfig;
use occusense_core::sim::occupants::{DESKS, DOOR_XY};
use occusense_driver::{no_flags, Usage};

const COLS: usize = 73; // 12 m  → 6 chars per metre
const ROWS: usize = 25; // 6 m   → 4 chars per metre

fn plot(grid: &mut [Vec<char>], x_m: f64, y_m: f64, c: char) {
    let col = ((x_m / 12.0) * (COLS - 1) as f64).round() as usize;
    let row = ((1.0 - y_m / 6.0) * (ROWS - 1) as f64).round() as usize;
    grid[row.min(ROWS - 1)][col.min(COLS - 1)] = c;
}

const USAGE: &str = "repro_fig2 — Figure 2 as an ASCII floor plan; no flags but -h, --help";

fn main() {
    Usage::new("repro_fig2", USAGE).parse(no_flags);
    let scene = Scene::office_default();
    let mobility = MobilityConfig::office_default();
    let mut grid = vec![vec![' '; COLS]; ROWS];

    // Walls.
    grid[0].fill('─');
    grid[ROWS - 1].fill('─');
    for row in grid.iter_mut() {
        row[0] = '│';
        row[COLS - 1] = '│';
    }
    grid[0][0] = '┌';
    grid[0][COLS - 1] = '┐';
    grid[ROWS - 1][0] = '└';
    grid[ROWS - 1][COLS - 1] = '┘';

    // Exclusion strip in front of the radios (occupants cannot pass
    // between AP and RX, §IV-A).
    let (x0, x1) = mobility.exclusion_x;
    let y_max = mobility.exclusion_y_max;
    let mut x = x0;
    while x <= x1 {
        let mut y = 0.15;
        while y < y_max {
            plot(&mut grid, x, y, '·');
            y += 0.3;
        }
        x += 0.25;
    }

    // Furniture.
    for sc in &scene.scatterers {
        let c = if sc.position.z > 1.0 { 'C' } else { 'd' };
        plot(&mut grid, sc.position.x, sc.position.y, c);
    }
    // Desk seats of the six subjects.
    for &(x, y) in &DESKS {
        plot(&mut grid, x, y, 'o');
    }
    // Radios and sensor chain.
    plot(&mut grid, scene.tx.x, scene.tx.y, 'A');
    plot(&mut grid, scene.rx.x, scene.rx.y, 'R');
    // Door.
    plot(&mut grid, DOOR_XY.0, DOOR_XY.1, 'D');

    println!("Figure 2 — the 12 × 6 m office (1 char ≈ 17 cm × 25 cm)\n");
    for row in &grid {
        println!("{}", row.iter().collect::<String>());
    }
    println!();
    println!("A access point   R Raspberry Pi sniffer (2 m from A, 1.4 m high)");
    println!("D entrance door  d desk   C cabinet   o subject seat");
    println!("· no-walking strip between the radios (§IV-A constraint)");
    println!();
    println!(
        "walls: south/north plasterboard, west concrete, east glass (windows),\n\
         concrete floor, tiled ceiling — see occusense-channel::scene"
    );
}
