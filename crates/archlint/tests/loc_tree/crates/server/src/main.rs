fn main() {
    println!("three lines");
}
