(define-package first
  (package
    (name "first")
    (version "1")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/greeting") "hello")))))

#~(let ((dir #$output) (from #$first))
    (mkdir dir)
    (copy-file (string-append from "/greeting") (string-append dir "/greeting")))
