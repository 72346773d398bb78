#~(begin
    (mkdir #$output)
    (mkdir (ungexp output "lib"))
    (write-file (string-append (ungexp output "lib") "/version") "1")
    (write-file (string-append #$output "/lib") (ungexp output "lib")))
